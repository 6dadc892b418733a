package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// selfLayers are the layers a traced run attributes span self time to. Every
// workload reports every layer, so a layer a workload never reaches reads 0.
var selfLayers = []string{"wire", "server", "eval", "fixpoint", "matview", "relation", "store", "wal", "pagestore"}

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the recorder was made; parent is -1 for a root span;
// req groups the spans of one benchmark operation.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Moved is self time, in nanoseconds by layer, that a counter showed
	// the call spent in a layer other than its own (see attribute).
	Moved map[string]int64 `json:"moved,omitempty"`
}

// recorder collects what a run measures: per-operation latencies, the
// attempted/failed counts, oracle verdicts, and — in a traced run — spans,
// counters and samples for the per-layer metrics. It is safe for concurrent
// use by the operation loop and the loopback relay's goroutines.
type recorder struct {
	traced    bool
	origin    time.Time
	attempted atomic.Int64
	failed    atomic.Int64
	nextReq   atomic.Int64

	mu      sync.Mutex
	reads   []float64 // ns
	commits []float64 // ns
	wrong   []string
	nWrong  int
	spans   []span
	counts  map[string]float64
	samples map[string][]float64
	// roundNs and roundOps accumulate wall time and operations of traced
	// ([1]) and untraced ([0]) rounds of a traced run, for its overhead.
	roundNs  [2]float64
	roundOps [2]float64
	// sliceLen is the least length of a slice; rates holds each finished
	// slice's operations per second.
	sliceLen time.Duration
	rates    []float64
}

func newRecorder(traced bool, sliceLen time.Duration) *recorder {
	return &recorder{
		traced:   traced,
		sliceLen: sliceLen,
		origin:   time.Now(),
		counts:   map[string]float64{},
		samples:  map[string][]float64{},
	}
}

// tracing reports whether round i is traced. A traced run alternates traced
// and untraced rounds, so the two see the same state and the overhead of
// tracing is their difference.
func (r *recorder) tracing(round int) bool { return r.traced && round%2 == 1 }

// roundDone records the wall time of one whole round of ops operations.
func (r *recorder) roundDone(traced bool, ops int, d time.Duration) {
	i := 0
	if traced {
		i = 1
	}
	r.mu.Lock()
	r.roundNs[i] += float64(d)
	r.roundOps[i] += float64(ops)
	r.mu.Unlock()
}

// overheadPct is how much slower an operation of a traced round was than
// one of an untraced round, in percent.
func (r *recorder) overheadPct() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.roundOps[0] == 0 || r.roundOps[1] == 0 {
		return 0
	}
	return 100 * ((r.roundNs[1]/r.roundOps[1])/(r.roundNs[0]/r.roundOps[0]) - 1)
}

// slice records one finished slice of a loop: ops operations in d.
func (r *recorder) slice(ops int, d time.Duration) {
	r.mu.Lock()
	r.rates = append(r.rates, float64(ops)/d.Seconds())
	r.mu.Unlock()
}

// throughput is ops_per_s: the median slice rate.
func (r *recorder) throughput() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return median(append([]float64(nil), r.rates...))
}

// op counts one attempted operation and reports whether it succeeded.
func (r *recorder) op(err error) bool {
	r.attempted.Add(1)
	if err != nil {
		r.failed.Add(1)
		r.mu.Lock()
		r.addWrong("operation failed: %v", err)
		r.mu.Unlock()
		return false
	}
	return true
}

func (r *recorder) read(d time.Duration) {
	r.mu.Lock()
	r.reads = append(r.reads, float64(d))
	r.mu.Unlock()
}

func (r *recorder) commit(d time.Duration) {
	r.mu.Lock()
	r.commits = append(r.commits, float64(d))
	r.mu.Unlock()
}

// wrongf records an answer that disagrees with the oracle.
func (r *recorder) wrongf(format string, args ...any) {
	r.mu.Lock()
	r.nWrong++
	r.addWrong(format, args...)
	r.mu.Unlock()
}

func (r *recorder) addWrong(format string, args ...any) {
	if len(r.wrong) < 10 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

// correct reports whether every operation that did not fail gave the
// oracle's answer.
func (r *recorder) correct() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nWrong == 0
}

func (r *recorder) wrongs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.wrong...)
}

func (r *recorder) readTimes() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.reads...)
}

func (r *recorder) commitTimes() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.commits...)
}

// newReq returns a fresh request id for the spans of one operation.
func (r *recorder) newReq() int64 { return r.nextReq.Add(1) }

// begin opens a span and returns its id.
func (r *recorder) begin(name, layer string, parent int32, req int64) int32 {
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Layer: layer, Start: now})
	return id
}

// end closes span id and returns its duration.
func (r *recorder) end(id int32) time.Duration {
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	return time.Duration(now - r.spans[id].Start)
}

// child runs f in a span under parent and returns its duration and error.
func (r *recorder) child(parent int32, req int64, name, layer string, f func() error) (time.Duration, error) {
	id := r.begin(name, layer, parent, req)
	err := f()
	return r.end(id), err
}

// relabel moves span id to another layer once the call's outcome shows which
// layer did its work (a matview hit against a recompute, say).
func (r *recorder) relabel(id int32, layer string) {
	r.mu.Lock()
	r.spans[id].Layer = layer
	r.mu.Unlock()
}

// attribute moves up to ns of span id's self time to layer, for work the
// call did inside the engine that no span of the benchmark's can enclose but
// a counter measures. It returns the nanoseconds moved.
func (r *recorder) attribute(id int32, layer string, ns int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	ns = min(ns, s.End-s.Start)
	if s.Moved == nil {
		s.Moved = map[string]int64{}
	}
	s.Moved[layer] += ns
	return ns
}

// spanNs is span id's duration in nanoseconds.
func (r *recorder) spanNs(id int32) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id].End - r.spans[id].Start
}

// spanAt records a span whose times were taken elsewhere (by the relay).
func (r *recorder) spanAt(name, layer string, parent int32, req int64, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: int32(len(r.spans)), Parent: parent, Req: req, Name: name, Layer: layer,
		Start: start.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds()})
	r.mu.Unlock()
}

func (r *recorder) spanCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// add accumulates a counter read at a layer boundary.
func (r *recorder) add(key string, v float64) {
	r.mu.Lock()
	r.counts[key] += v
	r.mu.Unlock()
}

func (r *recorder) count(key string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[key]
}

// sample keeps one observation for a later median.
func (r *recorder) sample(key string, v float64) {
	r.mu.Lock()
	r.samples[key] = append(r.samples[key], v)
	r.mu.Unlock()
}

func (r *recorder) samplesOf(key string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.samples[key]...)
}

// ratio is count(num)/count(den), or 0 when nothing was counted.
func (r *recorder) ratio(num, den string) float64 {
	d := r.count(den)
	if d == 0 {
		return 0
	}
	return r.count(num) / d
}

// selfTimeShares attributes each span's self time — its duration minus the
// part its children cover — to the span's layer, and reports each layer's
// share of the traced operations' time as self.<layer>_pct.
func (r *recorder) selfTimeShares() map[string]Metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int32][]span{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	var rootTotal float64
	for _, s := range r.spans {
		if s.End == 0 {
			continue
		}
		d := float64(s.End - s.Start)
		if s.Parent < 0 {
			rootTotal += d
		}
		self[s.Layer] += d - covered(children[s.ID])
		for l, ns := range s.Moved {
			self[s.Layer] -= float64(ns)
			self[l] += float64(ns)
		}
	}
	out := map[string]Metric{}
	for _, l := range selfLayers {
		v := 0.0
		if rootTotal > 0 {
			v = 100 * self[l] / rootTotal
		}
		out["self."+l+"_pct"] = Metric{v, "%"}
	}
	return out
}

// covered is how many nanoseconds of a span its children cover. Children
// of one span never overlap: they are the request/response exchanges of one
// connection, or calls made one after another.
func covered(kids []span) float64 {
	var total int64
	for _, k := range kids {
		total += k.End - k.Start
	}
	return float64(total)
}

// writeTrace writes every span as JSON.
func (r *recorder) writeTrace(path string) error {
	r.mu.Lock()
	b, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// heapSampler tracks the peak of the live heap — the bytes the latest
// garbage collection found reachable — by sampling runtime/metrics, which
// does not stop the world. Unlike the heap's instantaneous size it does not
// depend on when collections happen to run.
type heapSampler struct {
	stopCh chan struct{}
	done   chan struct{}
	peak   uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: liveHeapMetric}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stopCh:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopCh)
	<-h.done
	return h.peak
}

// allocBytes is the cumulative number of bytes the process has allocated on
// the heap.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
