package main

import (
	"fmt"
	"time"

	"dtnsim"
)

// The rwp-5k workload is the 5000-node constant-density classic RWP cell
// that the repository's executor benchmarks share, run streamed on the
// sequential executor. Mobility generation and the contact lookahead
// take about nine tenths of a run, so a kernel optimisation predicts no
// change here and a mobility optimisation predicts one.

// rwp5kMobility gives 171,093 contacts per run at the documented seed
// and a similar count at every seed (the population is large).
const rwp5kMobility = "rwp:nodes=5000,area=14142,span=2500,range=100,dt=25"

// cells5k is how many mobility seeds a 5k process cycles through: run i
// uses seed i mod cells5k. How far the flood spreads, and so the memory
// a run needs, depends on the seed; cycling keeps the process's figures
// from resting on one draw.
const cells5k = 16

// seeds5k returns the mobility seeds of a 5k process.
func seeds5k(seed uint64) []uint64 {
	s := make([]uint64, cells5k)
	for i := range s {
		s[i] = splitmix(seed, uint64(i))
	}
	return s
}

// scenario5k is the rwp-5k (and dist-5k) input for one run seed.
func scenario5k(seed uint64, shards int) dtnsim.Scenario {
	return dtnsim.Scenario{
		Mobility:     rwp5kMobility,
		Protocol:     "pure",
		Flows:        []dtnsim.Flow{{Src: 0, Dst: 4999, Count: 30}},
		Seed:         seed,
		RunToHorizon: true,
		Shards:       shards,
	}
}

// fingerprint renders a Result so that two renderings are equal exactly
// when the Results are bit-identical: %v prints floats in their shortest
// exact form and maps in key order.
func fingerprint(r *dtnsim.Result) string { return fmt.Sprintf("%+v", *r) }

// runOnce compiles sc off the clock and times one engine run. The 5k
// workloads open a memory window before each run, so every run starts
// from a collected heap as a fresh CLI process would.
func runOnce(sc dtnsim.Scenario, wrap func(*dtnsim.Config)) (*dtnsim.Result, time.Duration, error) {
	cfg, err := sc.Compile()
	if err != nil {
		return nil, 0, err
	}
	if wrap != nil {
		wrap(&cfg)
	}
	t := time.Now()
	res, err := dtnsim.Run(cfg)
	return res, time.Since(t), err
}

func runRWP5k(e env) (*outcome, error) {
	o := &outcome{}
	seeds := seeds5k(e.seed)
	if e.trace {
		return traceRWP5k(e, o, scenario5k(seeds[0], 0))
	}
	o.setup = func() (time.Duration, error) {
		t := time.Now()
		_, err := scenario5k(seeds[0], 0).Compile()
		return time.Since(t), err
	}
	if err := o.takeSetups(setupsFirst); err != nil {
		return nil, err
	}
	want := make([]string, len(seeds))
	lat, total, err := loop(e.seconds, func(i int) (time.Duration, error) {
		c := i % len(seeds)
		if err := o.startWindow(); err != nil {
			return 0, err
		}
		res, d, err := runOnce(scenario5k(seeds[c], 0), nil)
		if err := o.endWindow(c); err != nil {
			return 0, err
		}
		if err != nil {
			return d, fmt.Errorf("rwp-5k run %d: %w", i, err)
		}
		fp := fingerprint(res)
		if want[c] == "" {
			want[c] = fp
		}
		o.check(fp == want[c], "rwp-5k run %d differs from the first run on its seed", i)
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	o.endToEnd(lat, total, 0)
	// Once per process, off the clock: the two-shard executor must
	// reproduce the sequential Result bit for bit (DESIGN.md §12).
	res, _, err := runOnce(scenario5k(seeds[0], 2), nil)
	o.check(err == nil && fingerprint(res) == want[0], "rwp-5k two-shard run differs from the sequential run (err %v)", err)
	return o, nil
}

// traceRunsPer5k is how many runs each half of a 5k traced run makes.
const traceRunsPer5k = 2

// traceRWP5k is the traced run: untraced runs, then runs whose source is
// wrapped to count every contact, then a drained schedule replayed
// through the engine alone, which splits a run into mobility and core.
func traceRWP5k(e env, o *outcome, sc dtnsim.Scenario) (*outcome, error) {
	mem := startMem()
	var plain []float64
	var want string
	for i := 0; i < traceRunsPer5k; i++ {
		res, d, err := runOnce(sc, nil)
		if err != nil {
			return nil, fmt.Errorf("rwp-5k run %d: %w", i, err)
		}
		o.attempted++
		want = fingerprint(res)
		plain = append(plain, d.Seconds())
	}
	mem.finish(o, traceRunsPer5k)

	tr := newTracer()
	var traced []float64
	var streamed int64
	for i := 0; i < traceRunsPer5k; i++ {
		cs := &countingSource{}
		res, d, err := runOnce(sc, func(cfg *dtnsim.Config) {
			cs.Source = cfg.Source
			cfg.Source = cs
		})
		tr.add("run", time.Now().Add(-d), d, -1, i)
		traced = append(traced, d.Seconds())
		o.check(err == nil && fingerprint(res) == want, "rwp-5k traced run differs (err %v)", err)
		streamed = cs.n
	}
	overhead(o, median(traced), median(plain))

	// The replay schedule comes from draining the stream, never from
	// Scenario.Materialize: that runs the O(n²) materialized generator,
	// which takes minutes on this cell.
	run := traceRunsPer5k
	m := tr.begin("mobility", -1, run)
	src, err := sc.StreamMobility()
	if err != nil {
		return nil, err
	}
	sched, err := dtnsim.MaterializeSource(src)
	mob := tr.end(m)
	if err != nil {
		return nil, err
	}
	o.check(int64(len(sched.Contacts)) == streamed,
		"rwp-5k replay has %d contacts, the stream yielded %d", len(sched.Contacts), streamed)
	res, core, err := runOnce(sc, func(cfg *dtnsim.Config) {
		cfg.Source, cfg.Schedule = nil, sched
	})
	tr.add("core", time.Now().Add(-core), core, -1, run)
	o.check(err == nil && fingerprint(res) == want, "rwp-5k replayed run differs from the streamed run (err %v)", err)

	o.set("mobility.busy_s", mob.Seconds(), "s")
	o.set("mobility.contacts", float64(len(sched.Contacts)), "count")
	o.set("mobility.contacts_per_s", float64(len(sched.Contacts))/mob.Seconds(), "1/s")
	o.set("core.busy_s", core.Seconds(), "s")
	o.set("core.contacts", float64(streamed), "count")
	heapPeak(o)
	return o, finishTrace(e, o, tr)
}
