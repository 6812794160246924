package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/asm"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/measure"
	"repro/internal/obj"
)

// sm32Calls is the length of one chunk: one Figure 8 trial of the
// SMOD(test-incr) row, whose simulated cost per call is the paper
// table's 7.359 µs.
const sm32Calls = 10000

// benchPolicy admits the bench client; it is the policy the Figure 8
// rows register libc under.
const benchPolicy = `authorizer: "POLICY"
licensees: "bench"
conditions: app_domain == "secmodule" -> "allow";
`

// sm32Program is the Figure 8 trial loop (one trial of calls CALL incr
// between two marks) followed, after the last mark, by one more
// incr(arg) whose result becomes the exit status: 0 when it returned
// arg+1. The check runs outside the marks, so the measured loop is
// instruction for instruction the Figure 8 one.
func sm32Program(calls int, arg uint32) string {
	return fmt.Sprintf(`
.text
.global main
main:
	ENTER 8
	PUSHI 0
	STOREFP -4
trial:
	LOADFP -4
	PUSHI 1
	GEU
	JNZ trials_done
	TRAP %[1]d
	PUSHI 0
	STOREFP -8
inner:
	LOADFP -8
	PUSHI %[2]d
	GEU
	JNZ inner_done
	PUSHI %[3]d
	CALL incr
	ADDSP 4
	LOADFP -8
	PUSHI 1
	ADD
	STOREFP -8
	JMP inner
inner_done:
	LOADFP -4
	PUSHI 1
	ADD
	STOREFP -4
	JMP trial
trials_done:
	TRAP %[1]d
	PUSHI %[3]d
	CALL incr
	ADDSP 4
	PUSHRV
	PUSHI %[4]d
	NE
	SETRV
	LEAVE
	RET
`, measure.SysMark, calls, arg, arg+1)
}

// mark is the kernel state at one bench_mark syscall.
type mark struct {
	cycles, ctxsw, syscalls uint64
}

// sm32Kernel is a booted kernel holding a spawned Figure 8 client.
type sm32Kernel struct {
	k      *kern.Kernel
	sm     *core.SMod
	client *kern.Proc
	marks  []mark
}

// bootSM32 boots a fresh kernel as the Figure 8 harness does: attach
// SecModule, register libc under the bench policy, wire the mark
// syscall, assemble and link the client program, spawn it. onMark,
// when set, runs inside each mark syscall.
func bootSM32(program string, onMark func(*kern.Proc)) (*sm32Kernel, error) {
	b := &sm32Kernel{k: kern.New()}
	b.sm = core.Attach(b.k)
	lib, err := core.LibCArchive()
	if err != nil {
		return nil, err
	}
	if _, err := b.sm.Register(&core.ModuleSpec{
		Name: "libc", Version: 1, Owner: "owner", Lib: lib,
		PolicySrc: []string{benchPolicy},
	}); err != nil {
		return nil, err
	}
	b.k.RegisterSyscall(measure.SysMark, "bench_mark", func(k *kern.Kernel, p *kern.Proc, _ []uint32) kern.Sysret {
		b.marks = append(b.marks, mark{k.Clk.Cycles(), k.ContextSwitches, k.SyscallCount})
		if onMark != nil {
			onMark(p)
		}
		return kern.Sysret{}
	})
	mainObj, err := asm.Assemble("bench_main.s", program)
	if err != nil {
		return nil, err
	}
	im, err := core.LinkClient([]*obj.Object{mainObj},
		[]core.ClientModule{{Name: "libc", Version: 1}}, []*obj.Archive{lib})
	if err != nil {
		return nil, err
	}
	b.client, err = b.k.Spawn("bench", kern.Cred{UID: 1, Name: "bench"}, im)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// run runs the kernel until the client exits and checks it: exit
// status 0 (its last incr returned arg+1), no fatal signal, both marks.
func (b *sm32Kernel) run() error {
	if err := b.k.Run(0); err != nil {
		return err
	}
	if b.client.ExitStatus != 0 || b.client.KilledBy != 0 {
		return fmt.Errorf("client exited %d (killed by %d)", b.client.ExitStatus, b.client.KilledBy)
	}
	if len(b.marks) != 2 {
		return fmt.Errorf("client made %d marks, want 2", len(b.marks))
	}
	return nil
}

// chunk is one fresh-kernel trial, timed from outside.
type chunk struct {
	setup, run, cpu time.Duration
	allocs, bytes   uint64
	gcs             uint32
	simCycles       uint64
	ctxsw, syscalls uint64 // between the marks
	sessions        uint64
	policyChecks    uint64
}

func runChunk(arg uint32, rec *recorder) (chunk, error) {
	var c chunk
	root := rec.begin()
	t0 := time.Now()
	b, err := bootSM32(sm32Program(sm32Calls, arg), nil)
	c.setup = time.Since(t0)
	rec.end(spanBoot, "", arg, root)
	if err != nil {
		return c, fmt.Errorf("boot: %w", err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	u0 := readUsage()
	sp := rec.begin()
	t1 := time.Now()
	err = b.run()
	c.run = time.Since(t1)
	rec.end(spanRun, "", arg, sp)
	u1 := readUsage()
	runtime.ReadMemStats(&m1)
	rec.end(spanChunk, "", arg, root)
	if err != nil {
		return c, err
	}
	c.cpu = u1.cpu - u0.cpu
	c.allocs = m1.Mallocs - m0.Mallocs
	c.bytes = m1.TotalAlloc - m0.TotalAlloc
	c.gcs = m1.NumGC - m0.NumGC
	c.simCycles = b.marks[1].cycles - b.marks[0].cycles
	c.ctxsw = b.marks[1].ctxsw - b.marks[0].ctxsw
	c.syscalls = b.marks[1].syscalls - b.marks[0].syscalls
	c.sessions = b.sm.SessionsOpened
	c.policyChecks = b.sm.PolicyChecks
	return c, nil
}

// runSM32 runs sm32-incr: fresh-kernel chunks of sm32Calls calls on one
// goroutine until d has passed. Each chunk's argument is drawn from the
// seed.
func runSM32(seed int64, d time.Duration, traced bool) (outcome, error) {
	rng := rand.New(rand.NewSource(seed))
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	var (
		o              outcome
		setups, rates  []float64
		perCall        []time.Duration
		cpus           []float64
		sum            chunk
		bareN, trN     int64
		bareDur, trDur time.Duration
		chunks         int
	)
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		// Traced runs alternate bare and traced chunks, so
		// trace.overhead_pct compares the two under the same conditions.
		r := rec
		if i%2 == 0 {
			r = nil
		}
		c, err := runChunk(uint32(rng.Int31n(1<<30)), r)
		o.attempted += sm32Calls
		if err != nil {
			o.failed += sm32Calls
			o.err = err
			continue
		}
		chunks++
		o.calls += sm32Calls
		setups = append(setups, c.setup.Seconds())
		rates = append(rates, sm32Calls/c.run.Seconds())
		perCall = append(perCall, c.run/sm32Calls)
		cpus = append(cpus, float64(c.cpu.Nanoseconds())/1e3/sm32Calls)
		sum.cpu += c.cpu
		sum.allocs += c.allocs
		sum.bytes += c.bytes
		sum.gcs += c.gcs
		sum.simCycles += c.simCycles
		sum.ctxsw += c.ctxsw
		sum.syscalls += c.syscalls
		sum.sessions += c.sessions
		sum.policyChecks += c.policyChecks
		if r == nil {
			bareN += sm32Calls
			bareDur += c.run
		} else {
			trN += sm32Calls
			trDur += c.run
		}
	}
	if o.calls == 0 {
		return o, fmt.Errorf("no chunk completed: %v", o.err)
	}
	calls := float64(o.calls)
	simMicros := float64(sum.simCycles) / clock.CyclesPerMicrosecond
	o.samples = fmt.Sprintf("%d chunks of %d calls", chunks, sm32Calls)
	if len(rates) > 1 {
		q1, med, q3 := quartiles(rates)
		o.samples += fmt.Sprintf(", chunk rate quartiles %.0f, %.0f, %.0f/s", q1, med, q3)
	}
	if !traced {
		// Host time is taken over the fastest chunks (undisturbedShare).
		sel := fastest(rates, undisturbedShare)
		selRates, selCPU, us := make([]float64, len(sel)), make([]float64, len(sel)), new(hist)
		for j, i := range sel {
			selRates[j], selCPU[j] = rates[i], cpus[i]
			us.record(perCall[i])
		}
		o.samples += fmt.Sprintf("; host time over the fastest %d (%d beyond p90)", len(sel), us.beyond(0.9))
		o.add("calls_per_s", median(selRates))
		o.add("p50_us", us.at(0.5))
		o.add("p90_us", us.at(0.9))
		o.add("cpu_us_per_call", median(selCPU))
		o.add("sim_us_per_call", simMicros/calls)
		o.add("allocs_per_call", float64(sum.allocs)/calls)
		o.add("bytes_per_call", float64(sum.bytes)/calls)
		o.add("setup_s", median(setups))
		o.add("max_rss_mb", float64(readUsage().maxRSS)/(1<<20))
		o.add("ok_ratio", okRatio(o.attempted, o.failed))
		return o, nil
	}
	// No rpc or fleet layer runs on this workload; their metrics read 0.
	for _, name := range []string{"rpc.call_p50_us", "fleet.call_p50_us", "fleet.call_p90_us",
		"rpc.self_p50_us", "rpc.release_p50_us"} {
		o.add(name, 0)
	}
	o.add("core.sessions_per_call", float64(sum.sessions)/calls)
	o.add("core.policy_checks_per_call", float64(sum.policyChecks)/calls)
	o.add("fleet.evictions_per_call", 0)
	o.add("kern.ctxsw_per_call", float64(sum.ctxsw)/calls)
	o.add("kern.syscalls_per_call", float64(sum.syscalls)/calls)
	o.add("fleet.shard_skew", 0)
	if err := o.addProbes(); err != nil {
		return o, err
	}
	o.add("sim.host_ns_per_sim_us", float64(sum.cpu.Nanoseconds())/simMicros)
	o.add("go.gc_per_kcall", float64(sum.gcs)*1000/calls)
	o.add("trace.overhead_pct", overheadPct(bareN, bareDur, trN, trDur))
	link(rec.spans, spanChunk, spanBoot)
	link(rec.spans, spanChunk, spanRun)
	o.rec = rec
	return o, nil
}
