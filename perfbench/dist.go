package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"syscall"
	"time"

	"dtnsim"
	"dtnsim/internal/dist"
	"dtnsim/internal/dist/frame"
	"dtnsim/internal/dist/transport"
)

// The dist-5k workload is the rwp-5k cell executed on one dtnsim-worker
// process over pipes, with delta state shipping on and no fault
// injection. The mobility is rwp-5k's, so the difference between the two
// workloads is the process boundary: the frame codec, the transport and
// the coordinator's state bookkeeping. It is the only workload that
// exercises internal/dist, dist/frame and dist/transport.

// distConn wraps one worker connection. It counts bytes and calls both
// ways and, when traced, times each Read (the coordinator waiting for
// the worker) as a span and keeps a copy of the coordinator's frames.
type distConn struct {
	io.ReadWriteCloser
	bytesOut, bytesIn, writes, reads int64
	wait                             time.Duration
	tr                               *tracer
	parent                           *int
	captured                         *bytes.Buffer
}

func (c *distConn) Read(p []byte) (int, error) {
	t := time.Now()
	n, err := c.ReadWriteCloser.Read(p)
	d := time.Since(t)
	c.wait += d
	c.reads++
	c.bytesIn += int64(n)
	if c.tr != nil {
		c.tr.add("transport.wait", t, d, *c.parent, 0)
	}
	return n, err
}

func (c *distConn) Write(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Write(p)
	c.writes++
	c.bytesOut += int64(n)
	if c.captured != nil {
		c.captured.Write(p[:n])
	}
	return n, err
}

// distBackend is a one-worker backend whose connections come through the
// Options.Dial/Redial seam, so the benchmark sees every byte and every
// worker replacement.
type distBackend struct {
	be       *dist.Backend
	pipes    *transport.Pipes
	conns    []*distConn
	redials  int
	tr       *tracer
	parent   int
	captured *bytes.Buffer
}

func newDistBackend(bin string, tr *tracer) (*distBackend, error) {
	db := &distBackend{pipes: &transport.Pipes{Bin: bin}, tr: tr, parent: -1}
	if tr != nil {
		db.captured = &bytes.Buffer{}
	}
	wrap := func(rwc io.ReadWriteCloser) io.ReadWriteCloser {
		c := &distConn{ReadWriteCloser: rwc, tr: db.tr, parent: &db.parent, captured: db.captured}
		db.conns = append(db.conns, c)
		return c
	}
	be, err := dist.New(dist.Options{
		Workers:  1,
		Protocol: "pure",
		Dial: func(n int) ([]io.ReadWriteCloser, error) {
			rwcs, err := db.pipes.Dial(n)
			for i := range rwcs {
				rwcs[i] = wrap(rwcs[i])
			}
			return rwcs, err
		},
		Redial: func(i int) (io.ReadWriteCloser, error) {
			db.redials++
			rwc, err := db.pipes.Redial(i)
			if err != nil {
				return nil, err
			}
			return wrap(rwc), nil
		},
	})
	if err != nil {
		return nil, errors.Join(err, db.pipes.Close())
	}
	db.be = be
	return db, nil
}

// close shuts the worker down and reaps its process.
func (db *distBackend) close() error {
	return errors.Join(db.be.Close(), db.pipes.Close())
}

// childrenRSSMB is the largest resident-set peak among reaped child
// processes (the dist worker).
func childrenRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

func runDist5k(e env) (*outcome, error) {
	if e.workerBin == "" {
		return nil, errors.New("dist-5k needs -worker-bin")
	}
	o := &outcome{}
	seeds := seeds5k(e.seed)
	if e.trace {
		return traceDist5k(e, o, scenario5k(seeds[0], 0))
	}
	// Set-up: spawn a worker and complete the Hello handshake.
	o.setup = func() (time.Duration, error) {
		t := time.Now()
		be, err := dist.New(dist.Options{Workers: 1, Protocol: "pure", WorkerBin: e.workerBin})
		took := time.Since(t)
		if err != nil {
			return 0, err
		}
		return took, be.Close()
	}
	if err := o.takeSetups(setupsFirst); err != nil {
		return nil, err
	}
	db, err := newDistBackend(e.workerBin, nil)
	if err != nil {
		return nil, err
	}
	got := make([]string, len(seeds))
	var same []bool
	lat, total, err := loop(e.seconds, func(i int) (time.Duration, error) {
		c := i % len(seeds)
		if err := o.startWindow(); err != nil {
			return 0, err
		}
		res, d, err := runOnce(scenario5k(seeds[c], 0), func(cfg *dtnsim.Config) { cfg.Backend = db.be })
		if err := o.endWindow(c); err != nil {
			return 0, err
		}
		if err != nil {
			return d, fmt.Errorf("dist-5k run %d: %w", i, err)
		}
		fp := fingerprint(res)
		if got[c] == "" {
			got[c] = fp
		}
		same = append(same, fp == got[c])
		return d, nil
	})
	restarts := db.redials
	if cerr := db.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	child, err := childrenRSSMB()
	if err != nil {
		return nil, err
	}
	o.endToEnd(lat, total, child)
	// Off the clock: the in-process engine on the same seed is the
	// reference every distributed Result must equal bit for bit.
	for c, s := range seeds {
		if got[c] == "" {
			continue
		}
		ref, _, err := runOnce(scenario5k(s, 0), nil)
		if err != nil {
			return nil, err
		}
		for i, ok := range same {
			if i%len(seeds) == c {
				o.check(ok && fingerprint(ref) == got[c], "dist-5k run %d differs from the in-process Result", i)
			}
		}
	}
	o.check(restarts == 0, "dist-5k replaced %d workers", restarts)
	return o, nil
}

// traceDist5k is the traced run: one untraced distributed run, then one
// with the transport counted and timed, the mobility source timed and
// the coordinator's frames captured, which are then decoded offline.
func traceDist5k(e env, o *outcome, sc dtnsim.Scenario) (*outcome, error) {
	ref, _, err := runOnce(sc, nil)
	if err != nil {
		return nil, err
	}
	want := fingerprint(ref)

	db, err := newDistBackend(e.workerBin, nil)
	if err != nil {
		return nil, err
	}
	mem := startMem()
	res, plain, err := runOnce(sc, func(cfg *dtnsim.Config) { cfg.Backend = db.be })
	mem.finish(o, 1)
	if cerr := db.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	o.check(fingerprint(res) == want, "dist-5k untraced run differs from the in-process Result")

	tr := newTracer()
	db, err = newDistBackend(e.workerBin, tr)
	if err != nil {
		return nil, err
	}
	src := &countingSource{timed: true}
	db.parent = tr.begin("run", -1, 0)
	res, _, err = runOnce(sc, func(cfg *dtnsim.Config) {
		src.Source = cfg.Source
		cfg.Source = src
		cfg.Backend = db.be
	})
	wall := tr.end(db.parent)
	db.parent = -1
	restarts := db.redials
	if cerr := db.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	o.check(fingerprint(res) == want, "dist-5k traced run differs from the in-process Result")
	o.check(restarts == 0, "dist-5k replaced %d workers", restarts)
	overhead(o, wall.Seconds(), plain.Seconds())

	var out, in, writes, reads int64
	var wait time.Duration
	for _, c := range db.conns {
		out, in, writes, reads, wait = out+c.bytesOut, in+c.bytesIn, writes+c.writes, reads+c.reads, wait+c.wait
	}
	rounds, refs, snaps := 0, 0, 0
	stream := db.captured.Bytes()
	t := time.Now()
	r := bytes.NewReader(stream)
	for {
		m, err := frame.Read(r)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("decoding the captured stream: %w", err)
		}
		if m.Round != nil {
			rounds++
			refs += len(m.Round.Cached)
			snaps += len(m.Round.States)
		}
	}
	decode := time.Since(t)

	o.set("transport.bytes_out", float64(out), "bytes")
	o.set("transport.bytes_in", float64(in), "bytes")
	o.set("transport.writes", float64(writes), "count")
	o.set("transport.reads", float64(reads), "count")
	o.set("transport.wait_s", wait.Seconds(), "s")
	o.set("frame.rounds", float64(rounds), "count")
	o.set("frame.cache_refs", float64(refs), "count")
	o.set("frame.full_snapshots", float64(snaps), "count")
	o.set("frame.decode_ns_per_byte", float64(decode.Nanoseconds())/float64(max(len(stream), 1)), "ns")
	o.set("mobility.busy_s", src.busy.Seconds(), "s")
	o.set("mobility.contacts", float64(src.n), "count")
	o.set("mobility.contacts_per_s", float64(src.n)/src.busy.Seconds(), "1/s")
	o.set("core.contacts", float64(src.n), "count")
	// The run span's children are the transport waits, so its self time
	// is the wall time minus transport.wait_s.
	o.set("dist.coordinator_self_s", tr.selfOf("run")-src.busy.Seconds(), "s")
	o.set("dist.restarts", float64(restarts), "count")
	heapPeak(o)
	return o, finishTrace(e, o, tr)
}
