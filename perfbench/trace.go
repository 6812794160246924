package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rpc"
)

// Span names, one per layer boundary the benchmark times from outside.
const (
	spanRPCCall    = "rpc.call"    // client round trip of ProcFleetCall
	spanRPCRelease = "rpc.release" // client round trip of ProcFleetRelease
	spanFleetCall  = "fleet.call"  // FleetBackend.FleetCall inside the server
	spanChunk      = "sm32.chunk"  // one fresh-kernel Figure 8 trial
	spanBoot       = "kern.boot"   // its kernel boot, registration and link
	spanRun        = "kern.run"    // its simulated client loop
)

// span is one timed interval at a layer boundary. Spans of one request
// share (Key, Arg); Parent is the ID of the span that caused this one,
// 0 for a root.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Arg    uint32 `json:"arg"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs pay one nil check per boundary.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin returns the start offset of a span about to be recorded.
func (r *recorder) begin() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// end closes a span started at start. Parents are set afterwards, by
// link.
func (r *recorder) end(name, key string, arg uint32, start int64) {
	if r == nil {
		return
	}
	stop := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: uint64(len(r.spans) + 1), Name: name, Key: key, Arg: arg, Start: start, End: stop})
	r.mu.Unlock()
}

// link sets the parent of every child-named span to the parent-named
// span of the same request: same (Key, Arg), and an interval that
// contains the child's. It returns how many children found a parent.
func link(spans []span, parentName, childName string) int {
	type req struct {
		key string
		arg uint32
	}
	parents := map[req][]int{}
	for i, s := range spans {
		if s.Name == parentName {
			parents[req{s.Key, s.Arg}] = append(parents[req{s.Key, s.Arg}], i)
		}
	}
	linked := 0
	for i := range spans {
		c := &spans[i]
		if c.Name != childName {
			continue
		}
		for _, pi := range parents[req{c.Key, c.Arg}] {
			if p := spans[pi]; p.Start <= c.Start && c.End <= p.End {
				c.Parent = p.ID
				linked++
				break
			}
		}
	}
	return linked
}

// write stores the spans as gzipped JSON lines in dir/name.
func (r *recorder) write(dir, name string) (path string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path = filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close %s: %w", path, cerr)
		}
	}()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	if err := zw.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// tracedBackend is the benchmark's own rpc.FleetBackend: it forwards
// to the fleet and, while a recorder is installed, times each
// FleetCall as a fleet.call span. The span carries the request's key
// and first argument so it links to the client's rpc.call span.
type tracedBackend struct {
	next rpc.FleetBackend
	rec  atomic.Pointer[recorder]
}

func (b *tracedBackend) FleetCall(key string, funcID uint32, args []uint32) (uint32, int32, int32, error) {
	rec := b.rec.Load()
	if rec == nil {
		return b.next.FleetCall(key, funcID, args)
	}
	start := rec.begin()
	val, errno, shard, err := b.next.FleetCall(key, funcID, args)
	var arg uint32
	if len(args) > 0 {
		arg = args[0]
	}
	rec.end(spanFleetCall, key, arg, start)
	return val, errno, shard, err
}

func (b *tracedBackend) FleetRelease(key string) error { return b.next.FleetRelease(key) }

func (b *tracedBackend) FleetFuncID(name string) (uint32, bool) { return b.next.FleetFuncID(name) }
