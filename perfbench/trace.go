package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one traced call into a layer. Parent is the index of the
// enclosing span (-1 for a root); Run identifies the operation the span
// belongs to, so the spans of one run or job share it.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	// Self is the span's duration minus the part of it its children
	// cover; write fills it in.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends. It
// is used from one goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, parent, run int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Run: run})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// add records a span measured elsewhere (from start to start+d).
func (t *tracer) add(name string, start time.Time, d time.Duration, parent, run int) {
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + int64(d), Parent: parent, Run: run})
}

// busy sums the durations of every span with the given name, in
// seconds.
func (t *tracer) busy(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// computeSelf sets every span's self time: its duration minus the part
// of its interval covered by its children. Children of one span never
// overlap (one goroutine), so the covered part is the sum of their
// durations clipped to the parent.
func (t *tracer) computeSelf() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent < 0 {
			continue
		}
		p := &t.spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			p.Self -= hi - lo
		}
	}
}

// selfOf sums the self time of every span with the given name, in
// seconds.
func (t *tracer) selfOf(name string) float64 {
	t.computeSelf()
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.Self
		}
	}
	return float64(ns) / 1e9
}

// write saves the spans, with their self times, as JSON lines under dir.
func (t *tracer) write(dir, workload string, seed uint64) error {
	t.computeSelf()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// perLayer lists every per-layer metric with its unit. The traced run of
// every workload reports all of them; a layer the workload bypasses
// reports 0, which is the prediction for that layer there.
var perLayer = []struct{ name, unit string }{
	{"go.alloc_mb_per_run", "MB"},
	{"go.gc_cycles", "count"},
	{"go.heap_peak_mb", "MB"},
	{"trace.overhead_frac", "ratio"},
	{"mobility.busy_s", "s"},
	{"mobility.contacts", "count"},
	{"mobility.contacts_per_s", "1/s"},
	{"core.busy_s", "s"},
	{"core.contacts", "count"},
	{"core.transmissions", "count"},
	{"core.deliveries", "count"},
	{"core.control_records", "count"},
	{"core.deliveries_per_transmission", "ratio"},
	{"buffer.refused", "count"},
	{"buffer.evicted", "count"},
	{"buffer.expired", "count"},
	{"metrics.samples", "count"},
	{"protocol.pure.busy_s", "s"},
	{"protocol.pq.busy_s", "s"},
	{"protocol.ttl.busy_s", "s"},
	{"protocol.ec.busy_s", "s"},
	{"protocol.immunity.busy_s", "s"},
	{"protocol.dynttl.busy_s", "s"},
	{"protocol.ecttl.busy_s", "s"},
	{"protocol.cumimmunity.busy_s", "s"},
	{"experiment.self_s", "s"},
	{"server.submit_ms", "ms"},
	{"server.status_polls_per_job", "count"},
	{"server.artifact_ms", "ms"},
	{"server.artifact_bytes_per_job", "bytes"},
	{"server.job_p90_ms", "ms"},
	{"server.executed", "count"},
	{"server.cache_hits", "count"},
	{"server.failed", "count"},
	{"core.busy_ms_per_job", "ms"},
	{"report.busy_ms_per_job", "ms"},
	{"transport.bytes_out", "bytes"},
	{"transport.bytes_in", "bytes"},
	{"transport.writes", "count"},
	{"transport.reads", "count"},
	{"transport.wait_s", "s"},
	{"frame.rounds", "count"},
	{"frame.cache_refs", "count"},
	{"frame.full_snapshots", "count"},
	{"frame.decode_ns_per_byte", "ns"},
	{"dist.coordinator_self_s", "s"},
	{"dist.restarts", "count"},
}

// finishTrace completes a traced run's outcome: it saves the spans,
// fills every per-layer metric the workload did not set with 0, and
// rejects a metric outside the per-layer list or with another unit.
func finishTrace(e env, o *outcome, t *tracer) error {
	if err := t.write(e.traceDir, e.name, e.seed); err != nil {
		return err
	}
	all := map[string]metric{}
	for _, m := range perLayer {
		v, ok := o.metrics[m.name]
		if !ok {
			v = metric{Value: 0, Unit: m.unit}
		}
		if v.Unit != m.unit {
			return fmt.Errorf("metric %s has unit %s, want %s", m.name, v.Unit, m.unit)
		}
		all[m.name] = v
	}
	for n := range o.metrics {
		if _, ok := all[n]; !ok {
			return fmt.Errorf("metric %s is not in the per-layer list", n)
		}
	}
	o.metrics = all
	return nil
}

// overhead reports trace.overhead_frac: traced wall time per operation
// against untraced wall time per operation, minus one.
func overhead(o *outcome, traced, untraced float64) {
	o.set("trace.overhead_frac", traced/untraced-1, "ratio")
}
