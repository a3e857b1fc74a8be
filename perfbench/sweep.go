package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"dtnsim"
	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/metrics"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
	"dtnsim/internal/stats"
)

// The paper-sweep workload is the paper's own experiment (§IV–V, Table
// II): every built-in protocol × loads 5..50 × ten seeded runs per
// point, on both Table II substrates, through the sweep harness with one
// worker and the sequential executor. Its runs are small (hundreds of
// contacts), so the kernel, protocol, buffer and metrics layers and the
// fixed cost per run dominate; the classic RWP generator does no work.

// sweepSubstrates are the Table II mobility substrates, in the order a
// sweep runs them.
var sweepSubstrates = []string{"cambridge", "subscriber"}

// sweepRuns is the paper's runs per (protocol, load) point.
const sweepRuns = 10

// checkedPoints is how many seed-chosen points per sweep are re-run off
// the clock with two shards and compared bit for bit.
const checkedPoints = 4

// countingSource wraps a contact source, counting the contacts it yields
// and, when timed, the time spent inside Next.
type countingSource struct {
	contact.Source
	n     int64
	timed bool
	busy  time.Duration
}

func (s *countingSource) Next() (contact.Contact, bool) {
	if !s.timed {
		c, ok := s.Source.Next()
		if ok {
			s.n++
		}
		return c, ok
	}
	t := time.Now()
	c, ok := s.Source.Next()
	s.busy += time.Since(t)
	if ok {
		s.n++
	}
	return c, ok
}

// sweepSet is the compiled sweep grid: one harness scenario per
// substrate and one factory per protocol.
type sweepSet struct {
	scenarios []dtnsim.ExperimentScenario
	protocols []dtnsim.ProtocolFactory
}

// sweepDocs are the sweep files of a paper-sweep pass, one per
// substrate, as a user of the declarative interface writes them.
func sweepDocs() ([][]byte, error) {
	var docs [][]byte
	for _, sub := range sweepSubstrates {
		doc, err := dtnsim.SweepSpec{
			Scenario:  dtnsim.Scenario{Mobility: dtnsim.MobilitySpec(sub)},
			Protocols: dtnsim.BuiltinProtocolSpecs(),
			Runs:      sweepRuns,
			Workers:   1,
		}.JSON()
		if err != nil {
			return nil, err
		}
		docs = append(docs, doc)
	}
	return docs, nil
}

// compileSweep is the workload's set-up: it parses and compiles the
// sweep files and opens each substrate's first contact source, which is
// everything that happens before the first run starts.
func compileSweep(docs [][]byte, base uint64) (sweepSet, error) {
	var s sweepSet
	for _, doc := range docs {
		spec, err := dtnsim.ParseSweepSpec(doc)
		if err != nil {
			return s, err
		}
		sw, err := spec.Compile()
		if err != nil {
			return s, err
		}
		src, err := sw.Scenario.Stream(base)
		if err != nil {
			return s, err
		}
		if _, ok := src.Next(); !ok {
			return s, fmt.Errorf("%s: empty contact source", sw.Scenario.Name)
		}
		s.scenarios = append(s.scenarios, sw.Scenario)
		s.protocols = sw.Protocols
	}
	return s, nil
}

// kind is a protocol spec's registry kind ("pq:p=1,q=1" → "pq").
func kind(spec string) string {
	k, _, _ := strings.Cut(spec, ":")
	return k
}

// sweepPass is one timed pass over both substrates.
type sweepPass struct {
	results []*dtnsim.SweepResult // per substrate
	runLat  []float64             // seconds per run, from Stream boundaries
	wall    float64               // seconds inside the sweep harness
	srcs    []*countingSource     // when counting: every run's source
}

// runSweepPass runs the full grid on base seed base. Each run opens its
// contact source through Scenario.Stream immediately before the engine
// runs it (Workers 1 runs the grid strictly in order), so the gap
// between consecutive Stream calls is one run's latency. With count set
// every source is wrapped in a contact counter.
func runSweepPass(set sweepSet, base uint64, count bool) (*sweepPass, error) {
	p := &sweepPass{}
	for _, sc := range set.scenarios {
		var marks []time.Time
		orig := sc.Stream
		sc.Stream = func(seed uint64) (contact.Source, error) {
			marks = append(marks, time.Now())
			src, err := orig(seed)
			if err != nil || !count {
				return src, err
			}
			cs := &countingSource{Source: src}
			p.srcs = append(p.srcs, cs)
			return cs, nil
		}
		start := time.Now()
		res, err := dtnsim.RunSweep(dtnsim.Sweep{
			Scenario:  sc,
			Protocols: set.protocols,
			Runs:      sweepRuns,
			BaseSeed:  base,
			Workers:   1,
		})
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("sweep %s base %d: %w", sc.Name, base, err)
		}
		p.wall += end.Sub(start).Seconds()
		for i, m := range marks {
			next := end
			if i+1 < len(marks) {
				next = marks[i+1]
			}
			p.runLat = append(p.runLat, next.Sub(m).Seconds())
		}
		p.results = append(p.results, res)
	}
	return p, nil
}

// samePoint reports whether two sweep points are bit-identical.
func samePoint(a, b dtnsim.Point) bool {
	if a.Load != b.Load || a.Completed != b.Completed || a.Runs != b.Runs || len(a.Values) != len(b.Values) {
		return false
	}
	for m, v := range a.Values {
		w, ok := b.Values[m]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// checkSweepPoints re-runs a seed-chosen sample of the pass's points off
// the clock with the two-shard executor; DESIGN.md §12 promises
// bit-identical results for every shard count.
func checkSweepPoints(o *outcome, set sweepSet, p *sweepPass, base uint64) {
	loads := dtnsim.DefaultLoads()
	rng := sim.NewRNG(base ^ 0xc0ffee)
	for c := 0; c < checkedPoints; c++ {
		si := c % len(set.scenarios)
		pi := rng.IntN(len(set.protocols))
		li := rng.IntN(len(loads))
		res, err := dtnsim.RunSweep(dtnsim.Sweep{
			Scenario:  set.scenarios[si],
			Protocols: set.protocols[pi : pi+1],
			Loads:     loads[li : li+1],
			Runs:      sweepRuns,
			BaseSeed:  base,
			Workers:   1,
			Shards:    2,
		})
		if err != nil {
			o.check(false, "paper-sweep shard check: %v", err)
			continue
		}
		want := p.results[si].Series[pi].Points[li]
		o.check(samePoint(res.Series[0].Points[0], want),
			"paper-sweep base %d %s/%s load %d: two-shard point differs from the sweep",
			base, set.scenarios[si].Name, set.protocols[pi].Spec, loads[li])
	}
}

func runPaperSweep(e env) (*outcome, error) {
	o := &outcome{}
	docs, err := sweepDocs()
	if err != nil {
		return nil, err
	}
	set, err := compileSweep(docs, e.seed)
	if err != nil {
		return nil, err
	}
	runsPerPass := int64(len(set.scenarios) * len(set.protocols) * len(dtnsim.DefaultLoads()) * sweepRuns)
	if e.trace {
		return tracePaperSweep(e, o, set, runsPerPass)
	}
	o.setup = func() (time.Duration, error) {
		t := time.Now()
		_, err := compileSweep(docs, e.seed)
		return time.Since(t), err
	}
	if err := o.takeSetups(setupsFirst); err != nil {
		return nil, err
	}

	var lat []float64
	total := 0.0
	for k := uint64(0); total < e.seconds; k++ {
		base := splitmix(e.seed, k)
		if err := o.startWindow(); err != nil {
			return nil, err
		}
		p, err := runSweepPass(set, base, false)
		if err := o.endWindow(0); err != nil {
			return nil, err
		}
		if err != nil {
			o.attempted += runsPerPass
			o.fail("%v", err)
			break
		}
		o.attempted += int64(len(p.runLat))
		if int64(len(p.runLat)) != runsPerPass {
			o.fail("paper-sweep base %d ran %d runs, want %d", base, len(p.runLat), runsPerPass)
		}
		lat = append(lat, p.runLat...)
		total += p.wall
		checkSweepPoints(o, set, p, base)
	}
	o.endToEnd(lat, total, 0)
	return o, nil
}

// layerCounts is a counting observer for the exact simulated
// statistics: a speed-only change must leave every one identical.
type layerCounts struct {
	transmissions, deliveries, samples int64
	drops                              map[node.DropReason]int64
}

func (c *layerCounts) OnGenerate(bundle.ID, contact.NodeID, sim.Time) {}
func (c *layerCounts) OnTransmit(contact.NodeID, contact.NodeID, bundle.ID, sim.Time) {
	c.transmissions++
}
func (c *layerCounts) OnDeliver(bundle.ID, contact.NodeID, float64, sim.Time) { c.deliveries++ }
func (c *layerCounts) OnDrop(_ contact.NodeID, _ bundle.ID, r node.DropReason, _ sim.Time) {
	c.drops[r]++
}
func (c *layerCounts) OnSample(metrics.Sample) { c.samples++ }

// seedFor and pickPair restate the sweep harness's documented per-run
// derivations (internal/experiment), so the traced decomposition can
// replay each run on its own. foldPoint re-checks the restatement: the
// replayed runs must fold into the sweep's points bit for bit.
func seedFor(base uint64, load, run int) uint64 {
	x := base ^ (uint64(load) << 32) ^ uint64(run)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func pickPair(nodes int, seed uint64) (contact.NodeID, contact.NodeID) {
	rng := sim.NewRNG(seed ^ 0xfeed)
	src := rng.IntN(nodes)
	dst := rng.IntN(nodes - 1)
	if dst >= src {
		dst++
	}
	return contact.NodeID(src), contact.NodeID(dst)
}

// foldPoint averages one point's runs the way the harness does.
func foldPoint(load int, rs []*dtnsim.Result) dtnsim.Point {
	var delay, delivery, occ, dup, ovh stats.Welford
	completed := 0
	for _, r := range rs {
		if r.Completed {
			completed++
			delay.Add(r.Makespan)
		}
		delivery.Add(r.DeliveryRatio)
		occ.Add(r.MeanOccupancy)
		dup.Add(r.MeanDuplication)
		ovh.Add(float64(r.ControlRecords))
	}
	pt := dtnsim.Point{Load: load, Completed: completed, Runs: len(rs), Values: map[dtnsim.Metric]float64{
		dtnsim.MetricDelivery:    delivery.Mean(),
		dtnsim.MetricOccupancy:   occ.Mean(),
		dtnsim.MetricDuplication: dup.Mean(),
		dtnsim.MetricOverhead:    ovh.Mean(),
		dtnsim.MetricDelay:       math.NaN(),
	}}
	if delay.N() > 0 {
		pt.Values[dtnsim.MetricDelay] = delay.Mean()
	}
	return pt
}

// tracePaperSweep is the traced run: one untraced pass and one counted
// pass on the same base seed (their ratio is the tracing overhead), then
// a decomposition of every run into a mobility drain and an engine run
// over the drained contacts, with a counting observer.
func tracePaperSweep(e env, o *outcome, set sweepSet, runsPerPass int64) (*outcome, error) {
	base := splitmix(e.seed, 0)
	mem := startMem()
	plain, err := runSweepPass(set, base, false)
	if err != nil {
		return nil, err
	}
	mem.finish(o, len(plain.runLat))
	tr := newTracer()
	root := tr.begin("experiment.sweep", -1, 0)
	counted, err := runSweepPass(set, base, true)
	if err != nil {
		return nil, err
	}
	tr.end(root)
	overhead(o, counted.wall, plain.wall)
	var sweptContacts int64
	for _, s := range counted.srcs {
		sweptContacts += s.n
	}

	counts := layerCounts{drops: map[node.DropReason]int64{}}
	protoBusy := map[string]float64{}
	var controlRecords, replayContacts int64
	loads := dtnsim.DefaultLoads()
	run := 0
	for si, sc := range set.scenarios {
		for pi, pf := range set.protocols {
			layer := "protocol." + kind(pf.Spec) + ".busy_s"
			for li, load := range loads {
				rs := make([]*dtnsim.Result, 0, sweepRuns)
				for r := 0; r < sweepRuns; r++ {
					run++
					cell := tr.begin("cell", -1, run)
					seed := seedFor(base, load, r)
					streamSeed := base
					if sc.PerRunSchedule {
						streamSeed = seed
					}
					m := tr.begin("mobility", cell, run)
					src, err := sc.Stream(streamSeed)
					if err != nil {
						return nil, err
					}
					sched, err := dtnsim.MaterializeSource(src)
					tr.end(m)
					if err != nil {
						return nil, err
					}
					replayContacts += int64(len(sched.Contacts))
					a, b := pickPair(sched.Nodes, seedFor(base, 0, r))
					c := tr.begin("core", cell, run)
					res, err := dtnsim.Run(dtnsim.Config{
						Schedule:     sched,
						Protocol:     pf.New(),
						Flows:        []dtnsim.Flow{{Src: a, Dst: b, Count: load}},
						TxTime:       sc.TxTime,
						BufferCap:    sc.BufferCap,
						Seed:         seed,
						RunToHorizon: true,
						Observers:    []dtnsim.Observer{&counts},
					})
					d := tr.end(c)
					tr.end(cell)
					if err != nil {
						return nil, err
					}
					protoBusy[layer] += d.Seconds()
					controlRecords += res.ControlRecords
					rs = append(rs, res)
				}
				o.check(samePoint(foldPoint(load, rs), counted.results[si].Series[pi].Points[li]),
					"paper-sweep replay of %s/%s load %d does not fold into the sweep's point", sc.Name, pf.Spec, load)
			}
		}
	}
	o.check(replayContacts == sweptContacts, "paper-sweep replay drained %d contacts, the sweep streamed %d", replayContacts, sweptContacts)
	o.attempted += int64(len(plain.runLat) + len(counted.runLat))
	if int64(len(counted.runLat)) != runsPerPass {
		o.fail("paper-sweep traced pass ran %d runs, want %d", len(counted.runLat), runsPerPass)
	}

	mob, core := tr.busy("mobility"), tr.busy("core")
	o.set("mobility.busy_s", mob, "s")
	o.set("mobility.contacts", float64(replayContacts), "count")
	o.set("mobility.contacts_per_s", float64(replayContacts)/mob, "1/s")
	o.set("core.busy_s", core, "s")
	for _, pf := range set.protocols {
		name := "protocol." + kind(pf.Spec) + ".busy_s"
		o.set(name, protoBusy[name], "s")
	}
	o.set("experiment.self_s", plain.wall-mob-core, "s")
	o.set("core.contacts", float64(sweptContacts), "count")
	o.set("core.transmissions", float64(counts.transmissions), "count")
	o.set("core.deliveries", float64(counts.deliveries), "count")
	o.set("core.control_records", float64(controlRecords), "count")
	o.set("core.deliveries_per_transmission", float64(counts.deliveries)/float64(max(counts.transmissions, 1)), "ratio")
	o.set("buffer.refused", float64(counts.drops[node.DropRefused]), "count")
	o.set("buffer.evicted", float64(counts.drops[node.DropEvicted]), "count")
	o.set("buffer.expired", float64(counts.drops[node.DropExpired]), "count")
	o.set("metrics.samples", float64(counts.samples), "count")
	heapPeak(o)
	return o, finishTrace(e, o, tr)
}
