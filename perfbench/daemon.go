package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"time"

	"dtnsim"
	"dtnsim/client"
	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/metrics"
	"dtnsim/internal/node"
	"dtnsim/internal/server"
	"dtnsim/internal/sim"
)

// The daemon workloads drive an in-process dtnsimd (internal/server with
// one job worker) over a loopback listener from one client connection in
// a closed loop, the way dtnsim -remote uses the daemon. daemon-cold
// submits distinct scenario jobs, so each one runs the engine, the CSV
// observers, the cache write and SHA-256; daemon-cached resubmits the
// same specs in another JSON spelling to freshly started daemons over
// the filled cache, so each one runs the canonical key, the disk probe,
// the integrity check and the artifact read, and no engine. Cold and
// cached latencies are separate workloads so that neither is reported
// as a mix: a cache change that speeds reads by slowing writes shows on
// both.

// daemonSubstrates × the built-in protocols make the job mix.
var daemonSubstrates = []string{"cambridge", "subscriber"}

// daemonBundles is every job's flow size; daemonNodes is the population
// of both substrates, from which each job's flow endpoints are drawn.
const (
	daemonBundles = 30
	daemonNodes   = 12
)

// cachedSpecs is how many cold jobs fill the cache that daemon-cached
// reads back; each timed round resubmits all of them to a fresh daemon.
const cachedSpecs = 192

// daemonTraceJobs is how many jobs each half of a traced daemon-cold
// run makes (a multiple of the 16 mix combinations).
const daemonTraceJobs = 96

// pollEvery spaces a cold job's status polls. It is fine enough not to
// quantise a job of a few milliseconds (the client's own Wait polls every
// 200 ms), and coarse enough that polling does not take the processor
// the job runs on.
const pollEvery = 200 * time.Microsecond

// daemonJob is one scenario job: its spec in the spelling the cold phase
// submits, the same spec respelled, and the scenario itself.
type daemonJob struct {
	sc        dtnsim.Scenario
	spec      []byte
	respelled []byte
}

// jobMix returns job i of a run: every block of 16 consecutive jobs
// covers each substrate × protocol combination once, in a seed-shuffled
// order, so the mix is the same at every seed and only the mobility and
// protocol seeds and the flow endpoints vary.
func jobMix(seed uint64, i int) (daemonJob, error) {
	protos := dtnsim.BuiltinProtocolSpecs()
	combos := len(daemonSubstrates) * len(protos)
	perm := sim.NewRNG(splitmix(seed, uint64(i/combos))).Perm(combos)
	c := perm[i%combos]
	jobSeed := splitmix(seed^0xda3e, uint64(i))
	src, dst := pickPair(daemonNodes, jobSeed)
	sc := dtnsim.Scenario{
		Mobility: dtnsim.MobilitySpec(daemonSubstrates[c%len(daemonSubstrates)]),
		Protocol: protos[c/len(daemonSubstrates)],
		Flows:    []dtnsim.Flow{{Src: src, Dst: dst, Count: daemonBundles}},
		Seed:     jobSeed,
	}
	spec, err := sc.JSON()
	if err != nil {
		return daemonJob{}, err
	}
	// Another spelling of the same run: compact, fields reordered, and an
	// executor knob that never enters the canonical key.
	respelled := fmt.Appendf(nil, `{"seed":%d,"shards":1,"protocol":%q,"flows":[{"count":%d,"dst":%d,"src":%d}],"mobility":%q}`,
		sc.Seed, sc.Protocol, daemonBundles, dst, src, sc.Mobility)
	return daemonJob{sc: sc, spec: spec, respelled: respelled}, nil
}

// daemon is one running in-process dtnsimd and a client connected to it.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	cl     *client.Client
}

// startDaemon starts a daemon over cacheDir and makes one request, so
// the returned daemon is serving and the client is connected.
func startDaemon(ctx context.Context, cacheDir string) (*daemon, error) {
	srv, err := server.New(server.Options{CacheDir: cacheDir, Workers: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Manager().Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.cl = client.New("http://" + ln.Addr().String())
	if !d.cl.Healthy(ctx) {
		d.close()
		return nil, errors.New("daemon did not answer /healthz")
	}
	return d, nil
}

// close stops the listener and every job and waits for both.
func (d *daemon) close() error {
	err := d.hs.Close()
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.srv.Manager().Close()
	return err
}

// timeDaemonSetup times one fresh daemon over a fresh, empty cache
// directory. The directory is made off the clock: file-system metadata
// latency here depends on what earlier processes wrote, not on the
// daemon.
func timeDaemonSetup(ctx context.Context, e env) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		dir, err := os.MkdirTemp(e.workDir, "setup-")
		if err != nil {
			return 0, err
		}
		t := time.Now()
		d, err := startDaemon(ctx, dir)
		took := time.Since(t)
		if err != nil {
			return 0, err
		}
		if err := d.close(); err != nil {
			return 0, err
		}
		return took, os.RemoveAll(dir)
	}
}

// coldTiming is one cold job's measured parts.
type coldTiming struct {
	id                       string
	total, submit, artifacts time.Duration
	polls                    int // status polls that found the job not yet done
	bytes                    int
	result                   []byte
}

// coldJob submits one cold job, polls its status every pollEvery until
// it is terminal, and fetches its result and events artifacts. With tr
// set every call is a span.
func coldJob(ctx context.Context, d *daemon, j daemonJob, tr *tracer, run int) (coldTiming, error) {
	var ct coldTiming
	root, sp := -1, -1
	if tr != nil {
		root = tr.begin("job", -1, run)
		sp = tr.begin("submit", root, run)
	}
	t0 := time.Now()
	resp, err := d.cl.SubmitScenario(ctx, j.spec)
	ct.submit = time.Since(t0)
	if tr != nil {
		tr.end(sp)
	}
	if err != nil {
		return ct, fmt.Errorf("submit: %w", err)
	}
	if resp.Cached {
		return ct, fmt.Errorf("job %s was a cache hit on a fresh cache", resp.JobID)
	}
	ct.id = resp.JobID
	for {
		if tr != nil {
			sp = tr.begin("status", root, run)
		}
		st, err := d.cl.Status(ctx, resp.JobID)
		if tr != nil {
			tr.end(sp)
		}
		if err != nil {
			return ct, fmt.Errorf("status: %w", err)
		}
		if st.Terminal() {
			if st.State != client.StateDone {
				return ct, fmt.Errorf("job %s ended %s: %s", resp.JobID, st.State, st.Error)
			}
			break
		}
		ct.polls++
		time.Sleep(pollEvery)
	}
	t1 := time.Now()
	if tr != nil {
		sp = tr.begin("artifacts", root, run)
	}
	res, err := d.cl.ResultBytes(ctx, resp.JobID)
	if err != nil {
		return ct, fmt.Errorf("result: %w", err)
	}
	events, err := d.cl.EventsCSV(ctx, resp.JobID)
	if err != nil {
		return ct, fmt.Errorf("events: %w", err)
	}
	ct.artifacts = time.Since(t1)
	ct.total = time.Since(t0)
	if tr != nil {
		tr.end(sp)
		tr.end(root)
	}
	if len(events) == 0 {
		return ct, fmt.Errorf("job %s has an empty events artifact", resp.JobID)
	}
	ct.bytes = len(res) + len(events)
	ct.result = res
	return ct, nil
}

// sameFloat compares a served float with the engine's: the wire form
// carries NaN as null, which decodes as zero.
func sameFloat(engine, served float64) bool {
	if math.IsNaN(engine) {
		return served == 0
	}
	return math.Float64bits(engine) == math.Float64bits(served)
}

// agrees reports whether a served result.json describes the same run as
// a direct RunScenario of the same spec.
func agrees(served []byte, r *dtnsim.Result) error {
	var w client.RunResult
	if err := json.Unmarshal(served, &w); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	if w.Protocol != r.Protocol || w.Generated != r.Generated || w.Delivered != r.Delivered ||
		w.Completed != r.Completed || w.ControlRecords != r.ControlRecords ||
		w.DataTransmissions != r.DataTransmissions || w.Refused != r.Refused ||
		w.Evicted != r.Evicted || w.Expired != r.Expired || len(w.Deliveries) != len(r.DeliveryTimes) {
		return errors.New("counts differ")
	}
	for _, p := range [][2]float64{
		{r.DeliveryRatio, w.DeliveryRatio}, {r.Makespan, w.Makespan}, {r.MeanDelay, w.MeanDelay},
		{r.MeanOccupancy, w.MeanOccupancy}, {r.MeanDuplication, w.MeanDuplication},
		{float64(r.FinishedAt), w.FinishedAt},
	} {
		if !sameFloat(p[0], p[1]) {
			return fmt.Errorf("value %v served as %v", p[0], p[1])
		}
	}
	for _, dl := range w.Deliveries {
		at, ok := r.DeliveryTimes[bundle.ID{Src: contact.NodeID(dl.Src), Seq: dl.Seq}]
		if !ok || !sameFloat(float64(at), dl.At) {
			return fmt.Errorf("delivery %d:%d differs", dl.Src, dl.Seq)
		}
	}
	return nil
}

// checkCounters requires the daemon's counters to match what the client
// did exactly.
func checkCounters(o *outcome, m client.Metrics, executed, hits int64) {
	o.check(m.Executed == executed && m.CacheHits == hits && m.Failed == 0,
		"daemon counters executed=%d cache_hits=%d failed=%d, want %d, %d, 0",
		m.Executed, m.CacheHits, m.Failed, executed, hits)
}

func runDaemonCold(e env) (*outcome, error) {
	ctx := context.Background()
	o := &outcome{}
	if e.trace {
		dir, err := os.MkdirTemp(e.workDir, "cache-")
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(ctx, dir)
		if err != nil {
			return nil, err
		}
		defer d.close()
		return traceDaemonCold(ctx, e, o, d)
	}
	o.setup = timeDaemonSetup(ctx, e)
	if err := o.takeSetups(setupsFirst); err != nil {
		return nil, err
	}
	var lat []float64
	total := 0.0
	for round := 0; total < e.seconds; round++ {
		if err := o.startWindow(); err != nil {
			return nil, err
		}
		l, err := coldRound(ctx, e, o, round)
		if err != nil {
			return nil, err
		}
		if err := o.endWindow(0); err != nil {
			return nil, err
		}
		lat = append(lat, l...)
		for _, x := range l {
			total += x
		}
	}
	o.endToEnd(lat, total, 0)
	return o, nil
}

// coldRoundJobs is how many cold jobs one daemon serves before it is
// replaced, off the clock, by a fresh daemon over a fresh cache. The
// daemon keeps every job it has seen in memory, so bounding a daemon's
// jobs keeps the process's memory independent of how fast jobs run.
const coldRoundJobs = 256

// coldRound runs cold jobs round*coldRoundJobs onward on a fresh daemon.
// After each job, off the clock, its served result is checked against a
// direct RunScenario of the same spec.
func coldRound(ctx context.Context, e env, o *outcome, round int) ([]float64, error) {
	dir, err := os.MkdirTemp(e.workDir, "cache-")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(ctx, dir)
	if err != nil {
		return nil, err
	}
	lat := make([]float64, 0, coldRoundJobs)
	for k := 0; k < coldRoundJobs; k++ {
		i := round*coldRoundJobs + k
		j, err := jobMix(e.seed, i)
		if err != nil {
			d.close()
			return nil, err
		}
		ct, err := coldJob(ctx, d, j, nil, i)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("cold job %d: %w", i, err)
		}
		lat = append(lat, ct.total.Seconds())
		r, err := dtnsim.RunScenario(j.sc)
		if err == nil {
			err = agrees(ct.result, r)
		}
		o.check(err == nil, "daemon-cold job %d (%s/%s): %v", i, j.sc.Mobility, j.sc.Protocol, err)
	}
	m, err := d.cl.Metrics(ctx)
	if err == nil {
		checkCounters(o, m, coldRoundJobs, 0)
	}
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return lat, os.RemoveAll(dir)
}

// timedObserver times the calls into the observer it wraps.
type timedObserver struct {
	inner dtnsim.Observer
	busy  time.Duration
}

func (t *timedObserver) OnGenerate(id bundle.ID, dst contact.NodeID, now sim.Time) {
	s := time.Now()
	t.inner.OnGenerate(id, dst, now)
	t.busy += time.Since(s)
}

func (t *timedObserver) OnTransmit(from, to contact.NodeID, id bundle.ID, now sim.Time) {
	s := time.Now()
	t.inner.OnTransmit(from, to, id, now)
	t.busy += time.Since(s)
}

func (t *timedObserver) OnDeliver(id bundle.ID, dst contact.NodeID, delay float64, now sim.Time) {
	s := time.Now()
	t.inner.OnDeliver(id, dst, delay, now)
	t.busy += time.Since(s)
}

func (t *timedObserver) OnDrop(at contact.NodeID, id bundle.ID, r node.DropReason, now sim.Time) {
	s := time.Now()
	t.inner.OnDrop(at, id, r, now)
	t.busy += time.Since(s)
}

func (t *timedObserver) OnSample(sm metrics.Sample) {
	s := time.Now()
	t.inner.OnSample(sm)
	t.busy += time.Since(s)
}

// traceDaemonCold is the traced run: untraced cold jobs, then as many
// traced ones with a span per HTTP call, then each traced job's spec run
// directly — once bare (the engine alone) and once with the two CSV
// streams a job writes behind a timing observer.
func traceDaemonCold(ctx context.Context, e env, o *outcome, d *daemon) (*outcome, error) {
	mem := startMem()
	var plain []float64
	for i := 0; i < daemonTraceJobs; i++ {
		j, err := jobMix(e.seed, i)
		if err != nil {
			return nil, err
		}
		ct, err := coldJob(ctx, d, j, nil, i)
		if err != nil {
			return nil, err
		}
		plain = append(plain, ct.total.Seconds())
	}
	mem.finish(o, daemonTraceJobs)

	tr := newTracer()
	var traced, submits, artifacts, core, report []float64
	polls, nbytes := 0, 0
	for i := daemonTraceJobs; i < 2*daemonTraceJobs; i++ {
		j, err := jobMix(e.seed, i)
		if err != nil {
			return nil, err
		}
		ct, err := coldJob(ctx, d, j, tr, i)
		if err != nil {
			return nil, err
		}
		traced = append(traced, ct.total.Seconds())
		submits = append(submits, ct.submit.Seconds())
		artifacts = append(artifacts, ct.artifacts.Seconds())
		polls += ct.polls
		nbytes += ct.bytes

		t := time.Now()
		r, err := dtnsim.RunScenario(j.sc)
		took := time.Since(t)
		tr.add("core", t, took, -1, i)
		core = append(core, took.Seconds())
		if err == nil {
			err = agrees(ct.result, r)
		}
		o.check(err == nil, "daemon-cold traced job %d: %v", i, err)

		var series, events bytes.Buffer
		series1 := &timedObserver{inner: dtnsim.NewStreamObserver(&series, false)}
		events1 := &timedObserver{inner: dtnsim.NewStreamObserver(&events, true)}
		if _, err := dtnsim.RunScenario(j.sc, series1, events1); err != nil {
			return nil, err
		}
		report = append(report, (series1.busy + events1.busy).Seconds())
	}
	o.attempted += 2 * daemonTraceJobs
	overhead(o, median(traced), median(plain))
	m, err := d.cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	checkCounters(o, m, 2*daemonTraceJobs, 0)
	o.set("server.submit_ms", median(submits)*1e3, "ms")
	o.set("server.status_polls_per_job", float64(polls)/daemonTraceJobs, "count")
	o.set("server.artifact_ms", median(artifacts)*1e3, "ms")
	o.set("server.artifact_bytes_per_job", float64(nbytes)/daemonTraceJobs, "bytes")
	o.set("server.job_p90_ms", quantile(plain, 0.9)*1e3, "ms")
	o.set("server.executed", float64(m.Executed), "count")
	o.set("server.cache_hits", float64(m.CacheHits), "count")
	o.set("server.failed", float64(m.Failed), "count")
	o.set("core.busy_ms_per_job", median(core)*1e3, "ms")
	o.set("report.busy_ms_per_job", median(report)*1e3, "ms")
	heapPeak(o)
	return o, finishTrace(e, o, tr)
}

// cachedSet is the filled cache that daemon-cached reads back: the
// directory, the jobs, their ids and the result bytes the cold runs
// served.
type cachedSet struct {
	dir  string
	jobs []daemonJob
	ids  []string
	want [][]byte
}

// fillCache runs cachedSpecs cold jobs into a fresh cache directory.
func fillCache(ctx context.Context, e env) (*cachedSet, error) {
	dir, err := os.MkdirTemp(e.workDir, "cache-")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(ctx, dir)
	if err != nil {
		return nil, err
	}
	defer d.close()
	cs := &cachedSet{dir: dir}
	for i := 0; i < cachedSpecs; i++ {
		j, err := jobMix(e.seed, i)
		if err != nil {
			return nil, err
		}
		ct, err := coldJob(ctx, d, j, nil, i)
		if err != nil {
			return nil, fmt.Errorf("filling the cache: job %d: %w", i, err)
		}
		cs.jobs, cs.ids, cs.want = append(cs.jobs, j), append(cs.ids, ct.id), append(cs.want, ct.result)
	}
	return cs, nil
}

// cachedStats accumulates the measurements of cached rounds.
type cachedStats struct {
	lat, submits, artifacts []float64 // seconds per resubmit
	bytes                   int
	executed, hits, failed  int64
}

// round starts a fresh daemon over the filled cache (off the clock) and
// resubmits every spec respelled, in a seed-shuffled order, timing each
// resubmit until its result bytes are fetched. A fresh daemon per round
// makes every resubmit reach the disk probe rather than the in-memory
// job table.
func (cs *cachedSet) round(ctx context.Context, o *outcome, st *cachedStats, seed uint64, round int, tr *tracer) error {
	d, err := startDaemon(ctx, cs.dir)
	if err != nil {
		return err
	}
	defer d.close()
	for _, i := range sim.NewRNG(splitmix(seed^0xcac4e, uint64(round))).Perm(len(cs.jobs)) {
		run := round*len(cs.jobs) + i
		root, sp := -1, -1
		if tr != nil {
			root = tr.begin("job", -1, run)
			sp = tr.begin("submit", root, run)
		}
		t0 := time.Now()
		resp, err := d.cl.SubmitScenario(ctx, cs.jobs[i].respelled)
		t1 := time.Now()
		if tr != nil {
			tr.end(sp)
		}
		if err != nil {
			return fmt.Errorf("cached submit: %w", err)
		}
		if tr != nil {
			sp = tr.begin("artifacts", root, run)
		}
		res, err := d.cl.ResultBytes(ctx, resp.JobID)
		t2 := time.Now()
		if tr != nil {
			tr.end(sp)
			tr.end(root)
		}
		if err != nil {
			return fmt.Errorf("cached result: %w", err)
		}
		same := bytes.Equal(res, cs.want[i])
		o.check(resp.Cached && resp.State == client.StateDone && resp.JobID == cs.ids[i] && same,
			"daemon-cached job %d: cached=%v state=%s id match=%v bytes equal=%v",
			i, resp.Cached, resp.State, resp.JobID == cs.ids[i], same)
		st.lat = append(st.lat, t2.Sub(t0).Seconds())
		st.submits = append(st.submits, t1.Sub(t0).Seconds())
		st.artifacts = append(st.artifacts, t2.Sub(t1).Seconds())
		st.bytes += len(res)
	}
	m, err := d.cl.Metrics(ctx)
	if err != nil {
		return err
	}
	checkCounters(o, m, 0, int64(len(cs.jobs)))
	st.executed, st.hits, st.failed = st.executed+m.Executed, st.hits+m.CacheHits, st.failed+m.Failed
	return nil
}

func runDaemonCached(e env) (*outcome, error) {
	ctx := context.Background()
	o := &outcome{}
	cs, err := fillCache(ctx, e)
	if err != nil {
		return nil, err
	}
	if e.trace {
		return traceDaemonCached(ctx, e, o, cs)
	}
	// Set-up is a daemon restart: a fresh daemon over the filled cache.
	o.setup = func() (time.Duration, error) {
		t := time.Now()
		d, err := startDaemon(ctx, cs.dir)
		took := time.Since(t)
		if err != nil {
			return 0, err
		}
		return took, d.close()
	}
	if err := o.takeSetups(setupsFirst); err != nil {
		return nil, err
	}
	var st cachedStats
	total := 0.0
	for round := 0; total < e.seconds; round++ {
		if err := o.startWindow(); err != nil {
			return nil, err
		}
		n := len(st.lat)
		if err := cs.round(ctx, o, &st, e.seed, round, nil); err != nil {
			return nil, err
		}
		if err := o.endWindow(0); err != nil {
			return nil, err
		}
		for _, x := range st.lat[n:] {
			total += x
		}
	}
	o.endToEnd(st.lat, total, 0)
	return o, nil
}

// cachedTraceRounds is how many rounds each half of a traced
// daemon-cached run makes.
const cachedTraceRounds = 2

// traceDaemonCached is the traced run: untraced rounds, then as many
// rounds with a span per HTTP call.
func traceDaemonCached(ctx context.Context, e env, o *outcome, cs *cachedSet) (*outcome, error) {
	var plain, traced cachedStats
	mem := startMem()
	for round := 0; round < cachedTraceRounds; round++ {
		if err := cs.round(ctx, o, &plain, e.seed, round, nil); err != nil {
			return nil, err
		}
	}
	mem.finish(o, len(plain.lat))
	tr := newTracer()
	for round := cachedTraceRounds; round < 2*cachedTraceRounds; round++ {
		if err := cs.round(ctx, o, &traced, e.seed, round, tr); err != nil {
			return nil, err
		}
	}
	overhead(o, median(traced.lat), median(plain.lat))
	o.set("server.submit_ms", median(traced.submits)*1e3, "ms")
	o.set("server.artifact_ms", median(traced.artifacts)*1e3, "ms")
	o.set("server.artifact_bytes_per_job", float64(traced.bytes)/float64(len(traced.lat)), "bytes")
	o.set("server.job_p90_ms", quantile(plain.lat, 0.9)*1e3, "ms")
	o.set("server.executed", float64(plain.executed+traced.executed), "count")
	o.set("server.cache_hits", float64(plain.hits+traced.hits), "count")
	o.set("server.failed", float64(plain.failed+traced.failed), "count")
	heapPeak(o)
	return o, finishTrace(e, o, tr)
}
