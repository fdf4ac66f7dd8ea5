package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/warmstart"
)

// span is one interval the benchmark timed around a call into a layer.
// Times are nanoseconds since the recorder's epoch; parent indexes the
// recorder's span list (-1 = root); worker is the evaluation lane (-1
// when the call ran on the benchmark's own goroutine).
type span struct {
	name       string
	start, end int64
	parent     int32
	worker     int32
	id         string // trajectory or job the span belongs to
}

// recorder keeps spans in memory until the workload ends. It is used
// from one goroutine at a time: concurrent producers (the evaluator
// wrapper, the serve clients) buffer privately and merge afterwards.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add appends a finished span and returns its index.
func (r *recorder) add(name string, start, end time.Time, parent, worker int, id string) int {
	r.spans = append(r.spans, span{name, r.at(start), r.at(end), int32(parent), int32(worker), id})
	return len(r.spans) - 1
}

// open appends a span whose end is filled in by close.
func (r *recorder) open(name string, parent int, id string) int {
	now := time.Now()
	return r.add(name, now, now, parent, -1, id)
}

func (r *recorder) close(i int) { r.spans[i].end = r.at(time.Now()) }

// time runs fn inside a span and returns its duration in seconds.
func (r *recorder) time(name string, parent int, id string, fn func()) float64 {
	i := r.open(name, parent, id)
	fn()
	r.close(i)
	return float64(r.spans[i].end-r.spans[i].start) / 1e9
}

// seconds sums the durations of every span with the given name.
func (r *recorder) seconds(name string) float64 {
	var ns int64
	for i := range r.spans {
		if r.spans[i].name == name {
			ns += r.spans[i].end - r.spans[i].start
		}
	}
	return float64(ns) / 1e9
}

// durations lists the durations (seconds) of every span with the name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for i := range r.spans {
		if r.spans[i].name == name {
			out = append(out, float64(r.spans[i].end-r.spans[i].start)/1e9)
		}
	}
	return out
}

// writeFile stores the spans as one compact JSON document (format in
// README.md): one integer row per span, then the string tables the rows
// index, because an LJ trace holds close to a million spans.
func (r *recorder) writeFile(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var names, ids stringTable
	fmt.Fprintf(w, `{"workload":%q,"seed":%d,"epoch_unix_ns":%d,`, workload, seed, r.epoch.UnixNano())
	fmt.Fprint(w, `"columns":["name","start_ns","end_ns","parent","worker","id"],"spans":[`)
	buf := make([]byte, 0, 96)
	for i, s := range r.spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',', '\n')
		}
		buf = append(buf, '[')
		for k, v := range [6]int64{names.index(s.name), s.start, s.end, int64(s.parent), int64(s.worker), ids.index(s.id)} {
			if k > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, v, 10)
		}
		w.Write(append(buf, ']'))
	}
	fmt.Fprintf(w, "],\n\"names\":%s,\"ids\":%s}\n", names.json(), ids.json())
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stringTable assigns each distinct string a dense index.
type stringTable struct {
	list []string
	at   map[string]int64
}

func (t *stringTable) index(s string) int64 {
	i, ok := t.at[s]
	if !ok {
		if t.at == nil {
			t.at = map[string]int64{}
		}
		i = int64(len(t.list))
		t.at[s] = i
		t.list = append(t.list, s)
	}
	return i
}

func (t *stringTable) json() string {
	out := []byte{'['}
	for i, s := range t.list {
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendQuote(out, s)
	}
	return string(append(out, ']'))
}

// evalRec is one in-situ evaluation observed by tracedEval; times are
// nanoseconds since the wrapper's epoch. It holds no pointers, so the
// garbage collector never scans the million records of an LJ trace.
type evalRec struct {
	start, end int64
	atoms      int32
}

// tracedEval wraps the evaluator handed to sched.Engine so every
// polymer evaluation leaves a span. The engine does not tell an
// evaluator which worker runs it, so the wrapper hands out lanes: a
// lane is held for the duration of one call, there are as many lanes
// as workers, and each lane's buffer is only ever written by its
// current holder — no lock on the microsecond LJ path.
type tracedEval struct {
	inner fragment.StatefulEvaluator
	epoch time.Time
	busy  []atomic.Bool
	lanes [][]evalRec
}

// newTracedEval sizes each lane for expect evaluations up front, so the
// traced run does not pay for growing the buffers.
func newTracedEval(inner fragment.StatefulEvaluator, workers, expect int) *tracedEval {
	t := &tracedEval{inner: inner, epoch: time.Now(), busy: make([]atomic.Bool, workers), lanes: make([][]evalRec, workers)}
	for i := range t.lanes {
		t.lanes[i] = make([]evalRec, 0, expect)
	}
	return t
}

func (t *tracedEval) acquire() int {
	for i := range t.busy {
		if t.busy[i].CompareAndSwap(false, true) {
			return i
		}
	}
	panic("benchmark: more concurrent evaluations than engine workers")
}

// Evaluate implements fragment.Evaluator.
func (t *tracedEval) Evaluate(g *molecule.Geometry) (float64, []float64, error) {
	e, grad, _, err := t.EvaluateFrom(g, nil)
	return e, grad, err
}

// EvaluateFrom implements fragment.StatefulEvaluator.
func (t *tracedEval) EvaluateFrom(g *molecule.Geometry, prev *warmstart.State) (float64, []float64, *warmstart.State, error) {
	lane := t.acquire()
	start := time.Since(t.epoch)
	e, grad, st, err := t.inner.EvaluateFrom(g, prev)
	t.lanes[lane] = append(t.lanes[lane], evalRec{int64(start), int64(time.Since(t.epoch)), int32(g.N())})
	t.busy[lane].Store(false)
	return e, grad, st, err
}

// flush moves the buffered evaluations into rec as children of parent
// and returns them lane by lane.
func (t *tracedEval) flush(rec *recorder, parent int, id string) [][]evalRec {
	for lane, recs := range t.lanes {
		for _, ev := range recs {
			rec.add("potential.evaluate", t.epoch.Add(time.Duration(ev.start)), t.epoch.Add(time.Duration(ev.end)), parent, lane, id)
		}
	}
	return t.lanes
}
