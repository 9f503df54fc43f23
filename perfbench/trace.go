package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers around public functions. Spans of one request share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs stay free of its cost.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type spanKey struct{}

type spanRef struct {
	id  int64
	req int64
}

// withReq tags ctx with a request id that every span begun under it carries.
func withReq(ctx context.Context, req int64) context.Context {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	ref.req = req
	return context.WithValue(ctx, spanKey{}, ref)
}

func noop() {}

// begin opens a span named name under the span ctx carries; the returned
// func closes it. The returned ctx parents spans begun under it.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, func()) {
	if t == nil {
		return ctx, noop
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	s := span{ID: t.nextID.Add(1), Parent: parent.id, Name: name, Req: parent.req,
		Start: int64(time.Since(t.t0))}
	ctx = context.WithValue(ctx, spanKey{}, spanRef{id: s.ID, req: parent.req})
	return ctx, func() {
		s.End = int64(time.Since(t.t0))
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// add records a span measured elsewhere (a child process), shifting it by
// offset onto this tracer's clock and renumbering it past existing ids.
func (t *tracer) add(spans []span, offset int64) {
	if t == nil {
		return
	}
	var top int64
	for _, s := range spans {
		top = max(top, s.ID)
	}
	base := t.nextID.Add(top) - top // ids base+1 .. base+top are reserved
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Start += offset
		s.End += offset
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (children may overlap one another, so their
// union is taken, clipped to the parent).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	total, end := int64(0), lo
	for _, iv := range clipped {
		if iv[1] <= end {
			continue
		}
		if iv[0] > end {
			end = iv[0]
		}
		total += iv[1] - end
		end = iv[1]
	}
	return total
}

// layerRow aggregates every span of one name.
type layerRow struct {
	Name    string
	Count   int
	TotalNS int64
	SelfNS  int64
}

// layerTable sums the spans by name, ordered by self time, largest first.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	by := map[string]*layerRow{}
	for _, s := range spans {
		r := by[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			by[s.Name] = r
		}
		r.Count++
		r.TotalNS += s.End - s.Start
		r.SelfNS += self[s.ID]
	}
	rows := make([]layerRow, 0, len(by))
	for _, r := range by {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfNS != rows[j].SelfNS {
			return rows[i].SelfNS > rows[j].SelfNS
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

func printLayerTable(w io.Writer, rows []layerRow) {
	var all int64
	for _, r := range rows {
		all += r.SelfNS
	}
	fmt.Fprintf(w, "# %-18s %8s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		share := 0.0
		if all > 0 {
			share = 100 * float64(r.SelfNS) / float64(all)
		}
		fmt.Fprintf(w, "# %-18s %8d %12.3f %12.3f %6.1f%%\n", r.Name, r.Count,
			float64(r.TotalNS)/1e6, float64(r.SelfNS)/1e6, share)
	}
}
