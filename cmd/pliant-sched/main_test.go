package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestProfileFlags runs the command in-process with -cpuprofile and
// -memprofile and requires both profiles on disk, non-empty.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")

	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	args, flags, stdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = args, flags, stdout }()
	os.Args = []string{"pliant-sched", "-timescale", "16", "-horizon", "24", "-epoch", "12", "-policy", "first-fit", "-cpuprofile", cpu, "-memprofile", mem}
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	os.Stdout = devNull
	main()

	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", filepath.Base(p))
		}
	}
}
