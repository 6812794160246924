package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/measure"
	"repro/internal/rpc"
)

// The served workloads drive the stack cmd/smodfleetd runs: a fleet
// opened with measure.ServeFleetOptions behind rpc.RegisterFleetService
// and rpc.ServeTCP, called over TCP loopback by one closed-loop client
// on one connection.
const (
	servedShards = 2
	// servedProcs holds a served run's Go scheduler to one P, so every
	// hop of a call (client, rpc server, shard) is a goroutine switch on
	// one thread. Two clients on two Ps of a 2-vCPU VM timed cross-thread
	// wake-ups and the steal on both vCPUs as much as the stack: their
	// calls_per_s spread up to 25% between runs of the same code.
	servedProcs = 1
	warmKeysN   = 256
	// servedSessionCap is far above any shard's share of the warm keys
	// plus the churn keys in flight, so LRU eviction never fires and
	// every session a call opens is one the workload asked for.
	servedSessionCap = 4 * warmKeysN
	// churnEvery: on served-churn, one call in every block of this many
	// goes to a fresh key (opened, called once, released).
	churnEvery = 8
	// servedChunk is the longest one stack serves: a served run is made
	// of equal chunks of at most this length, each on a freshly set-up
	// stack. A fleet never frees the
	// simulated frames of pages a client and its handle shared
	// (vm.frames_leaked_per_session), so under served-churn one fleet
	// living for a whole run could exhaust a shard's 512 MB simulated
	// memory, which panics the process.
	servedChunk = 10 * time.Second
	// setupsPerChunk is how many stacks each chunk sets up; the last one
	// serves the chunk. setup_s is the median over all of them.
	setupsPerChunk = 5
	// rateWindow is the width of the windows calls_per_s takes its
	// median over.
	rateWindow = 500 * time.Millisecond
)

// stack is one served fleet with its listener and client connection.
type stack struct {
	f       *fleet.Fleet
	backend *tracedBackend
	ln      net.Listener
	served  chan struct{} // closed when the accept loop returns
	conn    *rpc.Client
	incr    uint32
}

// warmKeys names the keys warmed at set-up, the ones the client visits.
func warmKeys() []string {
	keys := make([]string, warmKeysN)
	for i := range keys {
		keys[i] = measure.ClientKey(i)
	}
	return keys
}

// openStack opens the fleet, warms one session per key, starts serving
// on a loopback port and dials the client's connection.
func openStack(keys []string) (s *stack, err error) {
	f, err := fleet.Open(measure.ServeFleetOptions(servedShards, servedSessionCap, nil)...)
	if err != nil {
		return nil, fmt.Errorf("open fleet: %w", err)
	}
	s = &stack{f: f, backend: &tracedBackend{next: f}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	incr, ok := f.FuncID("incr")
	if !ok {
		return nil, errors.New("fleet module exports no incr")
	}
	s.incr = incr
	warm := make([]fleet.Request, len(keys))
	for i, k := range keys {
		warm[i] = fleet.Request{Key: k, FuncID: incr, Args: []uint32{0}}
	}
	resps, err := f.RunPlan(warm)
	if err != nil {
		return nil, fmt.Errorf("warm: %w", err)
	}
	for i, r := range resps {
		if r.Err != nil || r.Errno != 0 || r.Val != 1 {
			return nil, fmt.Errorf("warm %s: val %d errno %d err %v", keys[i], r.Val, r.Errno, r.Err)
		}
	}
	s.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := rpc.NewServer()
	rpc.RegisterFleetService(srv, s.backend)
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		rpc.ServeTCP(s.ln, srv)
	}()
	s.conn, err = rpc.DialTCP(s.ln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	id, err := (&rpc.FleetClient{C: s.conn}).FuncID("incr")
	if err != nil {
		return nil, fmt.Errorf("FuncID over the wire: %w", err)
	}
	if id != incr {
		return nil, fmt.Errorf("FuncID over the wire = %d, fleet says %d", id, incr)
	}
	return s, nil
}

// close hangs up the client, stops the accept loop and shuts the
// fleet down, waiting for its shard goroutines.
func (s *stack) close() error {
	if s.conn != nil {
		s.conn.Close()
	}
	if s.ln != nil {
		s.ln.Close()
		<-s.served
	}
	return s.f.Close()
}

// setUp opens setupsPerChunk stacks, keeping the last, and returns it
// with every set-up time in seconds. Each set-up starts from a freshly
// collected heap, so earlier set-ups' garbage does not land in a later
// one's time.
func setUp(keys []string) (*stack, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := openStack(keys)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setupsPerChunk-1 {
			return s, times, nil
		}
		if err := s.close(); err != nil {
			return nil, nil, fmt.Errorf("close set-up fleet: %w", err)
		}
	}
}

// client is the closed-loop caller: it visits its keys in a seeded
// order (reshuffled every pass) with seeded arguments and, on
// served-churn, sends one call per block of churnEvery to a fresh key
// at a seeded position in the block. Its inputs continue across
// chunks; fc and incr name the current chunk's stack.
type client struct {
	id    int
	fc    *rpc.FleetClient
	incr  uint32
	keys  []string
	churn bool
	rng   *rand.Rand
	order []int
	pos   int
	fresh int

	attempted, failed, calls int64
	lat, rel                 *hist   // ok call and release round trips
	windows                  []int64 // ok calls per rateWindow since the phase start
}

func newClient(id int, seed int64, keys []string, churn bool) *client {
	return &client{
		id: id, keys: keys, churn: churn,
		rng: rand.New(rand.NewSource(seed*1000003 + int64(id))),
		pos: len(keys),
		lat: new(hist), rel: new(hist),
	}
}

func (c *client) nextKey() string {
	if c.pos == len(c.keys) {
		c.order = c.rng.Perm(len(c.keys))
		c.pos = 0
	}
	k := c.keys[c.order[c.pos]]
	c.pos++
	return k
}

// arg draws a call argument; incr must return arg+1.
func (c *client) arg() uint32 { return uint32(c.rng.Int31n(1 << 30)) }

// run calls in whole blocks of churnEvery until the deadline (so the
// fresh-key share is exact), recording spans into rec when non-nil. A
// transport error ends the client: its connection is unusable.
func (c *client) run(start, deadline time.Time, rec *recorder) error {
	for time.Now().Before(deadline) {
		freshAt := -1
		if c.churn {
			freshAt = c.rng.Intn(churnEvery)
		}
		for i := 0; i < churnEvery; i++ {
			if i != freshAt {
				if err := c.call(c.nextKey(), start, rec); err != nil {
					return err
				}
				continue
			}
			key := fmt.Sprintf("churn-%d-%d", c.id, c.fresh)
			c.fresh++
			if err := c.call(key, start, rec); err != nil {
				return err
			}
			if err := c.release(key, rec); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *client) call(key string, start time.Time, rec *recorder) error {
	arg := c.arg()
	sp := rec.begin()
	t0 := time.Now()
	val, errno, _, err := c.fc.Call(key, c.incr, arg)
	t1 := time.Now()
	rec.end(spanRPCCall, key, arg, sp)
	c.attempted++
	if err != nil {
		c.failed++
		return fmt.Errorf("client %d call %s: %w", c.id, key, err)
	}
	if errno != 0 || val != arg+1 {
		c.failed++
		return nil
	}
	c.calls++
	c.lat.record(t1.Sub(t0))
	w := int(t1.Sub(start) / rateWindow)
	for len(c.windows) <= w {
		c.windows = append(c.windows, 0)
	}
	c.windows[w]++
	return nil
}

func (c *client) release(key string, rec *recorder) error {
	sp := rec.begin()
	t0 := time.Now()
	err := c.fc.Release(key)
	t1 := time.Now()
	rec.end(spanRPCRelease, key, 0, sp)
	c.attempted++
	if err != nil {
		c.failed++
		return fmt.Errorf("client %d release %s: %w", c.id, key, err)
	}
	c.rel.record(t1.Sub(t0))
	return nil
}

// phase runs the client for d and returns the wall time it took.
func phase(c *client, d time.Duration, rec *recorder) (time.Duration, error) {
	c.windows = c.windows[:0]
	start := time.Now()
	err := c.run(start, start.Add(d), rec)
	return time.Since(start), err
}

// snapshot is the process and fleet state at a phase boundary.
type snapshot struct {
	fleet fleet.Stats
	mem   runtime.MemStats
	use   usage
}

func snap(f *fleet.Fleet) snapshot {
	s := snapshot{fleet: f.Stats(), use: readUsage()}
	runtime.ReadMemStats(&s.mem)
	return s
}

// runServed runs served-warm (churn false) or served-churn (churn true).
func runServed(churn bool, seed int64, d time.Duration, traced bool) (outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(servedProcs))
	var o outcome
	keys := warmKeys()
	c := newClient(0, seed, keys, churn)
	chunks := int((d + servedChunk - 1) / servedChunk)
	chunk := d / time.Duration(chunks)
	var (
		setups, rates  []float64
		delta          fleet.Stats // summed over chunks
		cpu            time.Duration
		mallocs, bytes uint64
		gcs            uint32
		rec            *recorder
		bareDur, trDur time.Duration
		bareOK, trOK   int64
		phaseErr       error
	)
	if traced {
		rec = newRecorder()
	}
	for i := 0; i < chunks && phaseErr == nil; i++ {
		s, times, err := setUp(keys)
		if err != nil {
			return o, err
		}
		setups = append(setups, times...)
		c.fc, c.incr = &rpc.FleetClient{C: s.conn}, s.incr
		before := snap(s.f)
		if !traced {
			var took time.Duration
			took, phaseErr = phase(c, chunk, nil)
			rates = append(rates, windowRates(c.windows, rateWindow, took)...)
		} else {
			// A bare half then a traced half, so trace.overhead_pct
			// compares the two under the same conditions.
			for _, r := range []*recorder{nil, rec} {
				s.backend.rec.Store(r)
				okBefore := c.calls
				took, err := phase(c, chunk/2, r)
				if r == nil {
					bareDur, bareOK = bareDur+took, bareOK+c.calls-okBefore
				} else {
					trDur, trOK = trDur+took, trOK+c.calls-okBefore
				}
				if phaseErr = err; err != nil {
					break
				}
			}
		}
		after := snap(s.f)
		addDelta(&delta, after.fleet.Delta(before.fleet))
		cpu += after.use.cpu - before.use.cpu
		mallocs += after.mem.Mallocs - before.mem.Mallocs
		bytes += after.mem.TotalAlloc - before.mem.TotalAlloc
		gcs += after.mem.NumGC - before.mem.NumGC
		if err := s.close(); err != nil {
			return o, fmt.Errorf("close fleet: %w", err)
		}
	}

	o.attempted, o.failed, o.calls = c.attempted, c.failed, c.calls
	o.err = phaseErr
	if o.calls == 0 {
		return o, fmt.Errorf("no call completed: %v", phaseErr)
	}
	calls := float64(o.calls)
	pc := normalise(delta, o.calls)
	o.samples = fmt.Sprintf("%d chunks, %d round trips (%d beyond p90), %d releases, %d set-ups",
		chunks, c.lat.n, c.lat.beyond(0.90), c.rel.n, len(setups))

	if !traced {
		o.samples += fmt.Sprintf(", %d rate windows", len(rates))
		if len(rates) > 1 {
			q1, _, q3 := quartiles(rates)
			o.samples += fmt.Sprintf(" (quartiles %.0f..%.0f/s)", q1, q3)
		}
		o.add("calls_per_s", median(rates))
		o.add("p50_us", c.lat.at(0.50))
		o.add("p90_us", c.lat.at(0.90))
		o.add("cpu_us_per_call", float64(cpu.Nanoseconds())/1e3/calls)
		o.add("sim_us_per_call", pc.simMicros)
		o.add("allocs_per_call", float64(mallocs)/calls)
		o.add("bytes_per_call", float64(bytes)/calls)
		o.add("setup_s", median(setups))
		o.add("max_rss_mb", float64(readUsage().maxRSS)/(1<<20))
		o.add("ok_ratio", okRatio(o.attempted, o.failed))
		return o, nil
	}

	spans := rec.spans
	linked := link(spans, spanRPCCall, spanFleetCall)
	byID := make(map[uint64]span, len(spans))
	rd, fd, self, release := new(hist), new(hist), new(hist), new(hist)
	for _, sp := range spans {
		switch sp.Name {
		case spanRPCCall:
			byID[sp.ID] = sp
			rd.record(sp.dur())
		case spanRPCRelease:
			release.record(sp.dur())
		}
	}
	for _, sp := range spans {
		if sp.Name != spanFleetCall {
			continue
		}
		fd.record(sp.dur())
		if p, ok := byID[sp.Parent]; ok {
			self.record(p.dur() - sp.dur())
		}
	}
	o.samples += fmt.Sprintf("; %d spans, %d of %d fleet.call spans linked to their rpc.call"+
		" (per-call rpc self time p50 %.3f us)", len(spans), linked, fd.n, self.at(0.5))
	o.add("rpc.call_p50_us", rd.at(0.5))
	o.add("fleet.call_p50_us", fd.at(0.5))
	o.add("fleet.call_p90_us", fd.at(0.9))
	// rpc self time at the median: the client round trip less the
	// backend call, so the two parts account for rpc.call_p50_us. The
	// median of the per-call differences is printed above; medians do
	// not add, so on served-churn's two-humped latency it sits lower.
	o.add("rpc.self_p50_us", rd.at(0.5)-fd.at(0.5))
	o.add("rpc.release_p50_us", release.at(0.5))
	o.add("core.sessions_per_call", pc.sessions)
	o.add("core.policy_checks_per_call", pc.policyChecks)
	o.add("fleet.evictions_per_call", pc.evictions)
	o.add("kern.ctxsw_per_call", pc.ctxsw)
	o.add("kern.syscalls_per_call", pc.syscalls)
	o.add("fleet.shard_skew", pc.skew)
	if err := o.addProbes(); err != nil {
		return o, err
	}
	o.add("sim.host_ns_per_sim_us", float64(cpu.Nanoseconds())/(pc.simMicros*calls))
	o.add("go.gc_per_kcall", float64(gcs)*1000/calls)
	o.add("trace.overhead_pct", overheadPct(bareOK, bareDur, trOK, trDur))
	o.rec = rec
	return o, nil
}

// addDelta adds the counters normalise reads from one chunk's
// fleet.Stats delta to acc.
func addDelta(acc *fleet.Stats, d fleet.Stats) {
	acc.SessionsOpened += d.SessionsOpened
	acc.Evictions += d.Evictions
	if acc.PerShard == nil {
		acc.PerShard = make([]fleet.ShardStats, len(d.PerShard))
	}
	for i, ps := range d.PerShard {
		a := &acc.PerShard[i]
		a.Calls += ps.Calls
		a.Cycles += ps.Cycles
		a.ContextSwitches += ps.ContextSwitches
		a.Syscalls += ps.Syscalls
		a.PolicyChecks += ps.PolicyChecks
	}
}

// overheadPct is how much lower the traced call rate is than the bare
// one, in percent of the bare rate.
func overheadPct(bareCalls int64, bareDur time.Duration, trCalls int64, trDur time.Duration) float64 {
	if bareCalls == 0 || trDur <= 0 || bareDur <= 0 {
		return 0
	}
	bare := float64(bareCalls) / bareDur.Seconds()
	tr := float64(trCalls) / trDur.Seconds()
	return (bare - tr) / bare * 100
}
