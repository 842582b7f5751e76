// The serving layer, end to end: a shadow-scheduler daemon session driven
// through its HTTP API from inside one process. A ServeServer (the engine
// behind cmd/pliant-served) is mounted on an httptest listener; a session
// spec — the same JSON surface the pliant-sched flags lower onto — fans one
// arrival feed out to two candidate policies in lockstep, jobs are submitted
// into the bounded ingest queue mid-run, the Server-Sent-Events stream is
// tailed live, and the finalized per-policy verdicts are compared. The
// faster-than-real-time session is paced (pace_ms) so the submissions and
// the SSE tail land while the run is still open — exactly the interactive
// regime the daemon serves.
//
//	go run ./examples/shadowserve
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	pliant "github.com/approx-sched/pliant"
)

func main() {
	// The daemon, mounted on a local listener. cmd/pliant-served mounts it
	// on its own http.Server; everything below is plain HTTP either way.
	srv := pliant.NewServeServer(pliant.ServeOptions{Version: pliant.Version()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// One session spec, JSON in = session out. Two policies make it a
	// shadow replay: telemetry-aware is the baseline, first-fit the shadow.
	spec := `{
		"name": "demo",
		"seed": 42,
		"policies": ["telemetry", "first-fit"],
		"horizon_sec": 120,
		"epoch_sec": 12,
		"timescale": 16,
		"submit_only": true,
		"pace_ms": 40
	}`
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(spec))
	if err != nil {
		log.Fatal(err)
	}
	var status struct {
		ID       string   `json:"id"`
		Policies []string `json:"policies"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("session %s: shadow replay of %v\n", status.ID, status.Policies)

	// Submit a batch mid-run: both engines receive the same jobs in the
	// same order, so every placement difference is the policy's doing.
	jobs := `{"jobs": ["canneal", "Bayesian", "raytrace", "SNP", "streamcluster", "water_spatial"]}`
	resp, err = http.Post(ts.URL+"/v1/sessions/"+status.ID+"/jobs", "application/json", strings.NewReader(jobs))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("submitted 6 jobs into the ingest queue (HTTP %d)\n\n", resp.StatusCode)

	// Tail the SSE stream until the session's terminal frame: baseline
	// placement decisions as they happen, then per-window verdicts.
	resp, err = http.Get(ts.URL + "/v1/sessions/" + status.ID + "/events")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	fmt.Println("live event stream:")
	var event string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "placement":
				var p struct {
					Window int     `json:"window"`
					AtSec  float64 `json:"at_sec"`
					Job    int     `json:"job"`
					Node   string  `json:"node"`
				}
				if json.Unmarshal([]byte(data), &p) == nil && p.Node != "" {
					fmt.Printf("  w%-2d %6.1fs  job %d -> %s\n", p.Window, p.AtSec, p.Job, p.Node)
				}
			case "window":
				var v pliant.ShadowWindowVerdict
				if json.Unmarshal([]byte(data), &v) == nil && len(v.Policies) == 2 {
					fmt.Printf("  w%-2d %6.1fs  verdict: baseline QoS %3.0f%%, shadow QoS %3.0f%%, %d jobs placed differently\n",
						v.Window, v.NowSec, v.Policies[0].QoSMetFrac*100,
						v.Policies[1].QoSMetFrac*100, v.Policies[1].DiffPlacements)
				}
			}
		}
	}

	// The horizon is reached: pull both finalized results. Each is
	// byte-identical to a batch pliant.RunSched of the same config — the
	// serving layer never perturbs the simulation.
	fmt.Println("\nfinalized results:")
	for _, pol := range status.Policies {
		resp, err := http.Get(ts.URL + "/v1/sessions/" + status.ID + "/result?policy=" + pol)
		if err != nil {
			log.Fatal(err)
		}
		var res struct {
			QoSMetFrac float64 `json:"qos_met_frac"`
			Completed  int     `json:"completed"`
			Arrived    int     `json:"arrived"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		fmt.Printf("  %-16s QoS met %3.0f%%, %d/%d jobs completed\n",
			pol, res.QoSMetFrac*100, res.Completed, res.Arrived)
	}

	// Daemon-level Prometheus metrics: the ingest ledger across sessions.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	fmt.Println("\ndaemon metrics (excerpt):")
	msc := bufio.NewScanner(resp.Body)
	for msc.Scan() {
		line := msc.Text()
		if strings.HasPrefix(line, "pliant_serve_jobs_") || strings.HasPrefix(line, "pliant_serve_sessions_created") {
			if !strings.HasPrefix(line, "#") {
				fmt.Printf("  %s\n", line)
			}
		}
	}
}
