package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/serve"
)

// The daemon workload is an open loop against one paced, submit-only serve
// session over HTTP: job submissions arrive at Poisson instants drawn from
// the seed at a fixed wall-clock rate on one keep-alive connection, and one
// SSE subscription sees every window event. It is the only workload on the
// HTTP ingest path, the session queue and the per-window snapshot and
// publish, and it drives sched.Runner in paced steps with external Inject.
// The offered rate and the pace keep the pending queue stationary and the
// pump's window step well inside the pace, so latency reflects the program,
// not a backlog.
const (
	daemonRate = 20.0 // submissions per wall second
	// A long pace makes the wait for the next window, which the host's
	// speed does not change, most of an injection's latency; the pump's
	// step, which a simulator speed-up shortens, is the rest.
	daemonPaceMS = 500
	// One 50 s window per pace runs the jobs through fast enough that about
	// nine are resident at a time: the pending queue stays empty between
	// windows instead of growing.
	daemonEpochSec = 50
	// At this request time scale the services' episodes cost a few
	// milliseconds a window, so the pump's step stays well inside the pace.
	daemonTimeScale = 1024
	// daemonDrain bounds the wait, after the last submission, for the
	// window event that counts it.
	daemonDrain = 5 * time.Second
)

// daemonNodes alternates the request-heavy services with mongodb, whose
// episodes are nearly free at this time scale. Nodes are dealt to the two
// shards round-robin, so shard 0 carries the service simulation and shard 1
// finishes each window early, leaving a core to the HTTP ingest path while
// the pump steps, as a daemon given its own core would have.
var daemonNodes = []string{
	"memcached", "mongodb", "nginx", "mongodb", "memcached", "mongodb",
	"nginx", "mongodb", "memcached", "mongodb", "nginx", "mongodb",
}

// windowEvent is one SSE window frame as the subscriber saw it.
type windowEvent struct {
	at      time.Time
	ledger  int // jobs the baseline engine has admitted (placed + pending)
	pending int
	queue   int // ingest queue depth right after the event
}

type daemonState struct {
	seed     uint64
	tr       *tracer
	srv      *serve.Server
	handler  *timedHandler
	hs       *http.Server
	served   chan error
	base     string
	id       string
	submit   *http.Client
	sse      *http.Response
	readDone chan struct{}
	createMS float64

	mu     sync.Mutex
	events []windowEvent
	sseErr error
}

// timedHandler is the decorator around the mounted serve handler: it times
// every request but the long-lived event stream and nests each in the
// client's submit span, whose ID travels in a header.
type timedHandler struct {
	h  http.Handler
	tr *tracer

	mu   sync.Mutex
	durs []float64
}

const spanHeader = "X-Perfbench-Span"

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if t.tr == nil || strings.HasSuffix(r.URL.Path, "/events") {
		t.h.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	id := t.tr.begin("serve.Server.ServeHTTP", parent)
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	d := time.Since(t0).Seconds()
	t.tr.end(id)
	t.mu.Lock()
	t.durs = append(t.durs, d)
	t.mu.Unlock()
}

func setupDaemon(seed uint64, tr *tracer) (state, error) {
	id, prev := tr.enter("setup.daemon")
	defer tr.leave(id, prev)
	if err := warmVariants(); err != nil {
		return nil, err
	}
	st := &daemonState{seed: seed, tr: tr, srv: serve.NewServer(serve.Options{}), served: make(chan error, 1)}
	st.handler = &timedHandler{h: st.srv}
	if tr.on {
		st.handler.tr = tr
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.base = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: st.handler, ReadHeaderTimeout: 10 * time.Second}
	go func() { st.served <- st.hs.Serve(ln) }()
	st.submit = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}

	if err := st.createSession(); err != nil {
		st.close()
		return nil, err
	}
	if err := st.subscribe(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (d *daemonState) createSession() error {
	spec := serve.Spec{
		Name:       "perfbench",
		Seed:       d.seed,
		Nodes:      daemonNodes,
		Policies:   []string{"telemetry"},
		HorizonSec: 1e6,
		EpochSec:   daemonEpochSec,
		SubmitOnly: true,
		Shape:      "steady",
		TimeScale:  daemonTimeScale,
		Shards:     2,
		PaceMS:     daemonPaceMS,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	id, prev := d.tr.enter("serve.create")
	t0 := time.Now()
	resp, err := d.post("/v1/sessions", body, id)
	d.createMS = 1e3 * time.Since(t0).Seconds()
	d.tr.leave(id, prev)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var status serve.SessionStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("create session: HTTP %d (%s)", resp.StatusCode, status.Error)
	}
	d.id = status.ID
	return nil
}

func (d *daemonState) post(path string, body []byte, span int) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	return d.submit.Do(req)
}

// subscribe opens the session's SSE stream and starts the reader.
func (d *daemonState) subscribe() error {
	sse := &http.Client{Transport: &http.Transport{}}
	resp, err := sse.Get(d.base + "/v1/sessions/" + d.id + "/events")
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	d.sse = resp
	d.readDone = make(chan struct{})
	go d.readEvents(resp.Body)
	return nil
}

// readEvents records every window event until the stream ends.
func (d *daemonState) readEvents(body io.Reader) {
	defer close(d.readDone)
	sess, _ := d.srv.Session(d.id)
	br := bufio.NewReader(body)
	var kind string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if err != io.EOF {
				d.mu.Lock()
				d.sseErr = err
				d.mu.Unlock()
			}
			return
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && kind == "window":
			at := time.Now()
			var v serve.WindowVerdict
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v); err != nil || len(v.Policies) == 0 {
				d.mu.Lock()
				d.sseErr = fmt.Errorf("bad window event %q: %v", line, err)
				d.mu.Unlock()
				return
			}
			p := v.Policies[0]
			ev := windowEvent{at: at, ledger: p.Placed + p.Pending, pending: p.Pending}
			if sess != nil {
				ev.queue = sess.Status().QueueDepth
			}
			d.mu.Lock()
			d.events = append(d.events, ev)
			d.mu.Unlock()
		case line == "":
			kind = ""
		}
	}
}

func (d *daemonState) ledger() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.events) == 0 {
		return 0
	}
	return d.events[len(d.events)-1].ledger
}

// close stops the session, the event stream and the HTTP server, and waits
// for every goroutine the workload started.
func (d *daemonState) close() {
	if d.id != "" {
		if req, err := http.NewRequest(http.MethodDelete, d.base+"/v1/sessions/"+d.id, nil); err == nil {
			if resp, err := d.submit.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		d.id = ""
	}
	if d.sse != nil {
		d.sse.Body.Close()
		<-d.readDone
		d.sse = nil
	}
	if d.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		d.hs.Shutdown(ctx)
		cancel()
		<-d.served
		d.hs = nil
	}
	d.srv.Drain()
	d.submit.CloseIdleConnections()
}

// submission is one attempted job submission.
type submission struct {
	due      time.Time // scheduled send time
	answered time.Time
	lag      float64 // seconds the generator sent it late
	latency  float64 // seconds from due to response; +Inf when refused
	accepted bool
	seq      int // 1-based position among accepted jobs
	// request is the root span of the job, from its due time to the window
	// event that counts it; the submit and handler spans nest inside.
	request int
}

func (d *daemonState) run(budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome()
	rng := rand.New(rand.NewSource(int64(d.seed)))
	names := app.Names()
	var subs []submission
	accepted, fivexx, unanswered := 0, 0, 0
	start := time.Now()
	offset := 0.0
	for {
		offset += rng.ExpFloat64() / daemonRate
		due := start.Add(time.Duration(offset * float64(time.Second)))
		if due.Sub(start) >= budget {
			break
		}
		// Every block of len(names) submissions holds each catalog
		// application once, in a seeded order, so runs on different seeds
		// offer the same job mix and differ only in order and timing.
		if len(subs)%len(names) == 0 {
			rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		}
		name := names[len(subs)%len(names)]
		waitUntil(due)
		s := submission{due: due, latency: math.Inf(1)}
		sent := time.Now()
		s.lag = sent.Sub(due).Seconds()
		s.request = tr.beginAt("gen.request", 0, due)
		submit := tr.begin("gen.submit", s.request)
		body, _ := json.Marshal(map[string][]string{"jobs": {name}})
		resp, err := d.post("/v1/sessions/"+d.id+"/jobs", body, submit)
		out.attempted++
		if err != nil {
			out.failed++
			unanswered++
			out.fail("submission %d: %v", len(subs), err)
		} else {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusAccepted:
				accepted++
				s.accepted, s.seq = true, accepted
				s.latency = time.Since(due).Seconds()
			case resp.StatusCode == http.StatusTooManyRequests:
				out.failed++
			default:
				out.failed++
				if resp.StatusCode >= 500 {
					fivexx++
				}
				out.fail("submission %d: HTTP %d", len(subs), resp.StatusCode)
			}
		}
		s.answered = time.Now()
		tr.end(submit)
		subs = append(subs, s)
	}

	// Let the pump inject and publish the last accepted jobs.
	deadline := time.Now().Add(daemonDrain)
	for d.ledger() < accepted && time.Now().Before(deadline) {
		time.Sleep(daemonPaceMS * time.Millisecond / 4)
	}
	sess, ok := d.srv.Session(d.id)
	if !ok {
		return nil, fmt.Errorf("session %s vanished", d.id)
	}
	sess.Stop()
	sess.Wait()
	status := sess.Status()
	<-d.readDone
	d.mu.Lock()
	events, sseErr := d.events, d.sseErr
	d.mu.Unlock()

	if status.Accepted+status.Rejected != out.attempted-unanswered {
		out.fail("ledger: accepted %d + rejected %d != attempted %d", status.Accepted, status.Rejected, out.attempted)
	}
	if status.Accepted != accepted {
		out.fail("server accepted %d, client saw %d accepted", status.Accepted, accepted)
	}
	if status.Injected != status.Accepted {
		out.fail("after drain injected %d != accepted %d", status.Injected, status.Accepted)
	}
	if fivexx > 0 {
		out.fail("%d submissions answered 5xx", fivexx)
	}
	if sseErr != nil {
		out.fail("event stream: %v", sseErr)
	}
	if status.State != string(serve.StateStopped) {
		out.fail("session ended %s, want stopped", status.State)
	}

	// Match each accepted job to the first window event that counts it.
	var submitLat, injectLat, lags []float64
	for _, s := range subs {
		submitLat = append(submitLat, s.latency)
		lags = append(lags, s.lag)
		inj, end := math.Inf(1), s.answered
		if s.accepted {
			i := sort.Search(len(events), func(i int) bool { return events[i].ledger >= s.seq })
			if i == len(events) {
				out.fail("accepted job %d never appeared in a window event", s.seq)
			} else {
				inj, end = events[i].at.Sub(s.due).Seconds(), events[i].at
			}
		}
		tr.endAt(s.request, end)
		injectLat = append(injectLat, inj)
	}
	if len(subs) == 0 {
		return nil, fmt.Errorf("budget too short for one submission")
	}
	out.opWall = submitLat
	stail, _ := tail(submitLat)
	itail, _ := tail(injectLat)
	// A job's result is visible once a window event counts it: that wait is
	// the daemon's latency_ms (the median injection latency).
	out.e2e["latency_ms"] = metric{1e3 * median(injectLat), "ms"}
	out.layer["submit_p50_ms"] = metric{1e3 * median(submitLat), "ms"}
	// The submission tail sits near the 99.4th percentile, where the host's
	// thread wake-up stalls decide it (a bare loopback echo server shows
	// the same 2-10 ms spread from run to run).
	out.layer["submit_tail_ms"] = metric{1e3 * stail, "ms"}
	out.layer["inject_tail_ms"] = metric{1e3 * itail, "ms"}
	out.layer["accepted_frac"] = metric{float64(accepted) / float64(out.attempted), "fraction"}

	// The session's finalized result holds the modeled outputs of every
	// job the generator got in. Which window a job lands in depends on
	// when it was sent, so unlike the closed loops these are not exact for
	// a seed.
	results, ok := sess.Results()
	if !ok || len(results) == 0 {
		return nil, fmt.Errorf("session %s has no result", d.id)
	}
	res := results[0]
	if msg := checkSchedResult(res); msg != "" {
		out.fail("session result: %s", msg)
	}
	out.e2e["qos_met_frac"] = metric{res.QoSMetFrac, "fraction"}
	out.e2e["inaccuracy_pct"] = metric{res.MeanInaccuracy, "%"}
	out.layer["sched.episodes"] = metric{float64(res.Episodes), "count"}
	out.layer["sched.placed"] = metric{float64(res.Placed), "count"}
	out.layer["sched.requeued"] = metric{float64(res.Requeued), "count"}

	var gaps []float64
	pendingMax, queueMax, late := 0, 0, 0
	for i, ev := range events {
		if ev.pending > pendingMax {
			pendingMax = ev.pending
		}
		if ev.queue > queueMax {
			queueMax = ev.queue
		}
		if i > 0 {
			g := ev.at.Sub(events[i-1].at).Seconds()
			gaps = append(gaps, g)
			tr.endAt(tr.beginAt("serve.window", 0, events[i-1].at), ev.at)
			if g > 1.5*daemonPaceMS/1e3 {
				late++
			}
		}
	}
	d.handler.mu.Lock()
	handler := d.handler.durs
	d.handler.mu.Unlock()
	lagTail, _ := tail(lags)
	out.layer["serve.create_ms"] = metric{d.createMS, "ms"}
	out.layer["serve.handler_us"] = metric{1e6 * median(handler), "us"}
	out.layer["serve.window_gap_ms"] = metric{1e3 * median(gaps), "ms"}
	out.layer["serve.late_window_frac"] = metric{float64(late) / float64(len(gaps)), "fraction"}
	out.layer["serve.queue_depth_max"] = metric{float64(queueMax), "count"}
	out.layer["serve.pending_max"] = metric{float64(pendingMax), "count"}
	out.layer["serve.accepted"] = metric{float64(status.Accepted), "count"}
	out.layer["serve.rejected"] = metric{float64(status.Rejected), "count"}
	out.layer["serve.injected"] = metric{float64(status.Injected), "count"}
	out.layer["gen.lag_ms"] = metric{1e3 * median(lags), "ms"}
	out.layer["gen.lag_tail_ms"] = metric{1e3 * lagTail, "ms"}
	return out, nil
}

// waitUntil sleeps to just before t and yields until it passes: the runtime's
// timers overshoot by up to a millisecond, which would otherwise show up as
// generator lag in every submission latency.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// spinWindow is how long before a due time waitUntil stops sleeping.
const spinWindow = 2 * time.Millisecond
