package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/measure"
	"repro/internal/mem"
	"repro/internal/vm"
)

const (
	// probeOps is how many vm calls one timed probe pass makes.
	probeOps = 1 << 20
	// probePasses is how many passes each probe makes; the median pass
	// is reported.
	probePasses = 7
)

// probeVM times vm.Space.FetchExec and vm.Space.Read32 on the address
// space of a Figure 8 client. A side kernel boots the client and, at
// its first mark (session attached, loop about to start), the probe
// walks the resident pages of that space: instruction bytes of the
// executable entries in order, and words of every other readable
// entry. Only resident pages are touched, so no probe call faults and
// the timing is the translation path alone.
func probeVM() (fetchNs, read32Ns float64, err error) {
	probed := false
	var probeErr error
	b, err := bootSM32(sm32Program(1, 0), func(p *kern.Proc) {
		if probed {
			return
		}
		probed = true
		fetchNs, read32Ns, probeErr = probeSpace(p.Space)
	})
	if err != nil {
		return 0, 0, fmt.Errorf("vm probe boot: %w", err)
	}
	if err := b.run(); err != nil {
		return 0, 0, fmt.Errorf("vm probe run: %w", err)
	}
	if !probed {
		return 0, 0, fmt.Errorf("vm probe: client never marked")
	}
	return fetchNs, read32Ns, probeErr
}

func probeSpace(s *vm.Space) (fetchNs, read32Ns float64, err error) {
	var text, words []uint32
	for _, e := range s.Entries() {
		if e.Prot&vm.ProtRead == 0 {
			continue
		}
		for idx, an := range e.Amap {
			if an == nil {
				continue
			}
			base := e.Start + idx<<mem.PageShift
			if e.Prot&vm.ProtExec != 0 {
				for off := uint32(0); off < mem.PageSize; off++ {
					text = append(text, base+off)
				}
			} else {
				for off := uint32(0); off < mem.PageSize; off += 4 {
					words = append(words, base+off)
				}
			}
		}
	}
	// Amap iteration order is random; walk pages in address order.
	sort.Slice(text, func(i, j int) bool { return text[i] < text[j] })
	sort.Slice(words, func(i, j int) bool { return words[i] < words[j] })
	if len(text) == 0 || len(words) == 0 {
		return 0, 0, fmt.Errorf("vm probe: %d resident text bytes, %d resident data words", len(text), len(words))
	}
	fetch := func() error {
		for i := 0; i < probeOps; i++ {
			if _, err := s.FetchExec(text[i%len(text)]); err != nil {
				return err
			}
		}
		return nil
	}
	read := func() error {
		for i := 0; i < probeOps; i++ {
			if _, err := s.Read32(words[i%len(words)]); err != nil {
				return err
			}
		}
		return nil
	}
	if fetchNs, err = timePasses(fetch); err != nil {
		return 0, 0, fmt.Errorf("vm probe FetchExec: %w", err)
	}
	if read32Ns, err = timePasses(read); err != nil {
		return 0, 0, fmt.Errorf("vm probe Read32: %w", err)
	}
	return fetchNs, read32Ns, nil
}

// timePasses runs pass probePasses times and returns the median
// nanoseconds per operation.
func timePasses(pass func() error) (float64, error) {
	ns := make([]float64, 0, probePasses)
	for i := 0; i < probePasses; i++ {
		t0 := time.Now()
		if err := pass(); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/probeOps)
	}
	return median(ns), nil
}

// leakSessions is how many sessions probeLeak runs.
const leakSessions = 100

// probeLeak runs leakSessions sessions through a fleet session's life
// in a fresh kernel provisioned as fleet shards are: a native client
// attaches (smod_find, policy check, forcible fork), calls incr once
// and parks, then the kernel kills it, as a fleet release or eviction
// does. It returns the simulated page frames still allocated per
// session once every process has gone: memory teardown never returned.
func probeLeak() (float64, error) {
	k := kern.New()
	sm := core.Attach(k)
	if err := measure.FleetProvision(k, sm, backend.Profile{}); err != nil {
		return 0, fmt.Errorf("leak probe provision: %w", err)
	}
	m := sm.Module(sm.Find("libc", 1))
	if m == nil {
		return 0, fmt.Errorf("leak probe: libc not registered")
	}
	incr, ok := m.FuncID("incr")
	if !ok {
		return 0, fmt.Errorf("leak probe: libc exports no incr")
	}
	const sysPark = measure.SysMark + 1
	k.RegisterSyscall(sysPark, "bench_park", func(*kern.Kernel, *kern.Proc, []uint32) kern.Sysret {
		return kern.Sysret{BlockOn: sysPark}
	})
	idle := func() bool { return !k.HasRunnable() }
	base := k.Phys.InUse()
	for i := 0; i < leakSessions; i++ {
		i := i
		var callErr error
		p := k.SpawnNative("leak-probe", kern.Cred{UID: 1, Name: "bench"}, func(s *kern.Sys) int {
			c, err := core.AttachNative(s, "libc", 1, "")
			if err != nil {
				callErr = err
				return 1
			}
			if v, errno := c.Call(uint32(incr), uint32(i)); errno != 0 || v != uint32(i)+1 {
				callErr = fmt.Errorf("incr(%d) = %d, errno %d", i, v, errno)
				return 1
			}
			s.Call(sysPark)
			return 0
		})
		if err := k.RunUntil(idle, 0); err != nil {
			return 0, fmt.Errorf("leak probe: %w", err)
		}
		if callErr != nil {
			return 0, fmt.Errorf("leak probe: %w", callErr)
		}
		k.Kill(p, kern.SIGKILL)
		if err := k.RunUntil(idle, 0); err != nil {
			return 0, fmt.Errorf("leak probe: %w", err)
		}
	}
	if n := len(k.Procs()); n != 0 {
		return 0, fmt.Errorf("leak probe: %d processes left", n)
	}
	return float64(k.Phys.InUse()-base) / leakSessions, nil
}
