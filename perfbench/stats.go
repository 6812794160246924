package main

import (
	"math"
	"math/bits"
	"sort"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/fleet"
)

// quartiles returns the first quartile, median and third quartile of
// xs the way Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method) and statistics.median compute them, so the
// steadiness report matches the acceptance arithmetic exactly. It
// needs at least two values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	return q(1), med, q(3)
}

// median is the middle value of xs (mean of the middle two for an even
// count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if len(xs) == 1 {
		return xs[0]
	}
	_, m, _ := quartiles(xs)
	return m
}

// okRatio is the share of attempted operations that completed with a
// correct reply; a run that attempted nothing scores 0.
func okRatio(attempted, failed int64) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}

// perCall normalises one measured phase's fleet.Stats delta by the
// number of client calls it served.
type perCall struct {
	sessions, policyChecks, evictions float64
	ctxsw, syscalls                   float64
	simMicros                         float64
	// skew is the busiest shard's call count over the mean per-shard
	// count: 1 is a perfectly balanced fleet.
	skew float64
}

func normalise(d fleet.Stats, calls int64) perCall {
	if calls <= 0 {
		return perCall{}
	}
	var policy, ctxsw, sys, cycles, shardCalls, busiest uint64
	for _, ps := range d.PerShard {
		policy += ps.PolicyChecks
		ctxsw += ps.ContextSwitches
		sys += ps.Syscalls
		cycles += ps.Cycles
		shardCalls += ps.Calls
		if ps.Calls > busiest {
			busiest = ps.Calls
		}
	}
	n := float64(calls)
	pc := perCall{
		sessions:     float64(d.SessionsOpened) / n,
		policyChecks: float64(policy) / n,
		evictions:    float64(d.Evictions) / n,
		ctxsw:        float64(ctxsw) / n,
		syscalls:     float64(sys) / n,
		simMicros:    float64(cycles) / clock.CyclesPerMicrosecond / n,
	}
	if shardCalls > 0 {
		pc.skew = float64(busiest) / (float64(shardCalls) / float64(len(d.PerShard)))
	}
	return pc
}

// windowRates turns per-window completion counts into rates per
// second, keeping only the windows wholly inside a phase of the given
// length.
func windowRates(counts []int64, window, phase time.Duration) []float64 {
	n := int(phase / window)
	if n > len(counts) {
		n = len(counts)
	}
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = float64(counts[i]) / window.Seconds()
	}
	return rates
}

// undisturbedShare is the share of a run's sm32-incr chunks that its
// host-time metrics calls_per_s, p50_us, p90_us and cpu_us_per_call
// are taken over: the fastest ones. On a shared host, other tenants
// slow this single-threaded interpreter loop by up to 40% for seconds
// at a time, in CPU time as much as in wall time, and how much of a run
// they disturb changes from run to run. Their work only ever slows a
// chunk, so a run's fastest chunks measure the program; across six 30 s
// runs the median chunk's rate spread 16% (IQR over median) and the
// fastest tenth's 6%. A change to the program moves every chunk, the
// fastest included.
const undisturbedShare = 0.1

// fastest returns the indices of the ceil(share*len(rates)) highest
// rates, at least one when there are any, fastest first.
func fastest(rates []float64, share float64) []int {
	idx := make([]int, len(rates))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rates[idx[a]] > rates[idx[b]] })
	n := int(math.Ceil(share * float64(len(rates))))
	if n < 1 {
		n = 1
	}
	return idx[:min(n, len(idx))]
}

// hist is a log-linear histogram of durations: exact below 2048 ns,
// then 1024 buckets per power of two, so a reading is within 0.1% of
// the value recorded. It records in constant memory, so the
// benchmark's own samples do not grow the RSS that max_rss_mb reports.
type hist struct {
	counts [histBuckets]uint64
	n      int64
}

const (
	histSubBits = 10
	histBuckets = (64 - histSubBits + 1) << histSubBits
)

func (h *hist) record(d time.Duration) {
	v := uint64(d)
	if d < 0 {
		v = 0
	}
	i := int(v)
	if v >= 2<<histSubBits {
		shift := bits.Len64(v) - histSubBits - 1
		i = shift<<histSubBits + int(v>>shift)
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// at returns the nearest-rank q-quantile (0 < q <= 1) in microseconds,
// the midpoint of its bucket, or 0 for an empty histogram.
func (h *hist) at(q float64) float64 {
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		if seen += c; c > 0 && seen >= rank {
			if i < 2<<histSubBits {
				return float64(i) / 1e3
			}
			shift := i>>histSubBits - 1
			low := uint64(i-shift<<histSubBits) << shift
			return (float64(low) + float64(uint64(1)<<shift)/2) / 1e3
		}
	}
	return 0
}

// beyond counts the samples strictly above the q-quantile's rank.
func (h *hist) beyond(q float64) int64 {
	return h.n - int64(math.Ceil(q*float64(h.n)))
}

// usage is the process's resource use so far.
type usage struct {
	cpu    time.Duration // user + system
	maxRSS int64         // bytes
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: ru.Maxrss * 1024, // Linux reports KiB
	}
}
