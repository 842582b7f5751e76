package sim

import (
	"math"
	"testing"
)

// lookaheadDraws are the per-value functions the simulator prefetches: a
// log-normal service demand and the unit value of an exponential gap.
var lookaheadDraws = map[string]func(*RNG) float64{
	"lognormal":     func(r *RNG) float64 { return r.LogNormal(-9, 0.7) },
	"logcomplement": (*RNG).LogComplement,
}

// takeMatches draws n values from l and checks each, bit for bit, against
// draw(inline) on an identically seeded RNG.
func takeMatches(t *testing.T, l *Lookahead, inline *RNG, draw func(*RNG) float64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		got, want := l.Next(), draw(inline)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("value %d: lookahead %v, inline %v", i, got, want)
		}
	}
}

func TestLookaheadMatchesInlineDraws(t *testing.T) {
	for name, draw := range lookaheadDraws {
		t.Run(name, func(t *testing.T) {
			// Several times around the whole ring of blocks, ending mid-block.
			n := 3*lookaheadBlock*lookaheadBlocks + lookaheadBlock/2
			l := NewLookahead(NewRNG(42).Split(1), draw, nil)
			takeMatches(t, l, NewRNG(42).Split(1), draw, n)
			l.Close()
			l.Close() // idempotent
		})
	}
}

func TestLookaheadEarlyCloseAndReuse(t *testing.T) {
	draw := lookaheadDraws["lognormal"]
	var buf LookaheadBuf
	// Close after a few values, then after exactly one block: what was taken
	// matches, and the helper's overdraw leaves no trace on the next stream
	// through the same storage.
	for i, n := range []int{5, lookaheadBlock, 2*lookaheadBlock + 1} {
		seed := uint64(100 + i)
		l := NewLookahead(NewRNG(seed), draw, &buf)
		takeMatches(t, l, NewRNG(seed), draw, n)
		l.Close()
	}
	l := NewLookahead(NewRNG(7), draw, &buf)
	takeMatches(t, l, NewRNG(7), draw, 2*lookaheadBlock*lookaheadBlocks)
	l.Close()

	defer func() {
		if recover() == nil {
			t.Fatal("Next after Close did not panic")
		}
	}()
	l.Next()
}

// TestLookaheadNextAllocFree pins the per-value path, block handoffs
// included, at zero allocations.
func TestLookaheadNextAllocFree(t *testing.T) {
	l := NewLookahead(NewRNG(3), (*RNG).LogComplement, nil)
	defer l.Close()
	var sink float64
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < 3*lookaheadBlock; i++ {
			sink += l.Next()
		}
	})
	if avg != 0 {
		t.Fatalf("Lookahead.Next allocates %v per %d values, want 0", avg, 3*lookaheadBlock)
	}
	if math.IsNaN(sink) {
		t.Fatal("NaN draw")
	}
}
