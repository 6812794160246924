package core

import (
	"testing"

	"repro/internal/kern"
)

// TestSessionTeardownFreesFrames runs native sessions through a fleet
// session's whole life on one kernel — attach (find, policy check,
// forcible fork and share), one incr call, park, SIGKILL — and checks
// that every simulated page frame comes back once both the client and
// its handle are gone. The pages the pair force-shares are referenced
// from both address spaces, so the last space to unmap them must free
// them; a kernel serving session churn otherwise runs out of memory.
func TestSessionTeardownFreesFrames(t *testing.T) {
	const (
		sessions = 10
		sysPark  = 399
	)
	k, sm := newSMod(t)
	registerLibc(t, sm, nil)
	incr := uint32(mustFuncID(t, sm, "incr"))
	k.RegisterSyscall(sysPark, "test_park", func(*kern.Kernel, *kern.Proc, []uint32) kern.Sysret {
		return kern.Sysret{BlockOn: sysPark}
	})
	idle := func() bool { return !k.HasRunnable() }
	base := k.Phys.InUse()
	for i := uint32(0); i < sessions; i++ {
		var got uint32
		var errno int
		p := k.SpawnNative("churn", clientCred(), func(s *kern.Sys) int {
			c, err := AttachNative(s, "libc", 1, "")
			if err != nil {
				t.Errorf("session %d: attach: %v", i, err)
				return 1
			}
			got, errno = c.Call(incr, i)
			s.Call(sysPark)
			return 0
		})
		if err := k.RunUntil(idle, 400_000_000); err != nil {
			t.Fatal(err)
		}
		if errno != 0 || got != i+1 {
			t.Fatalf("session %d: incr(%d) = %d, errno %d", i, i, got, errno)
		}
		k.Kill(p, kern.SIGKILL)
		if err := k.RunUntil(idle, 400_000_000); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(k.Procs()); n != 0 {
		t.Fatalf("%d processes left after teardown", n)
	}
	if inUse := k.Phys.InUse(); inUse != base {
		t.Fatalf("frames in use = %d after %d sessions, want %d (%.1f leaked per session)",
			inUse, sessions, base, float64(int64(inUse)-int64(base))/sessions)
	}
}
