package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/engine"
)

// Spans of a traced round, recorded by the wrappers in instrument:
//
//	lane            a driver lane: from the driver call to its last Op return
//	  op-root       one operation: first Classify call to the Op return
//	    classify    the classifier, plus any re-proof after a fence
//	    gate-wait   Classify return to Op start, minus re-proofs: the engine gate
//	    op          the wrapped Op: one resolution
//	redefine        a churn redefinition closure (a root of its own)
//
// Spans of one operation share the id (client index, iteration). Self
// time is a span's duration minus the part its children cover; children
// tile op-root exactly, so the lane's self time is the driver's own work.
type spanStats struct {
	ops        int
	classify   int64
	gateWait   int64
	op         int64
	root       int64
	lane       int64
	gateWaits  []int64
	confined   int
	reproofs   int
	redefine   int64
	redefines  int
	holders    uint64
	redefineNs []int64
}

// summarizeSpans reduces one traced round's records to span totals.
func summarizeSpans(recs [][]opRec, lanes []int, start int64, redefs []redefinition) *spanStats {
	st := &spanStats{}
	laneEnd := map[int]int64{}
	for c, rs := range recs {
		for _, r := range rs {
			classify := r.t1 - r.t0 + r.reproof
			wait := r.t2 - r.t1 - r.reproof
			st.ops++
			st.classify += classify
			st.gateWait += wait
			st.op += r.t3 - r.t2
			st.root += r.t3 - r.t0
			st.gateWaits = append(st.gateWaits, wait)
			if r.cls == engine.Confined {
				st.confined++
			}
			st.reproofs += int(r.reproofs)
			if r.t3 > laneEnd[lanes[c]] {
				laneEnd[lanes[c]] = r.t3
			}
		}
	}
	for _, end := range laneEnd {
		st.lane += end - start
	}
	for _, d := range redefs {
		st.redefines++
		st.redefine += d.end - d.start
		st.redefineNs = append(st.redefineNs, d.end-d.start)
		st.holders += d.holders
	}
	return st
}

// merge adds another round's span totals to st.
func (st *spanStats) merge(o *spanStats) {
	st.ops += o.ops
	st.classify += o.classify
	st.gateWait += o.gateWait
	st.op += o.op
	st.root += o.root
	st.lane += o.lane
	st.gateWaits = append(st.gateWaits, o.gateWaits...)
	st.confined += o.confined
	st.reproofs += o.reproofs
	st.redefine += o.redefine
	st.redefines += o.redefines
	st.holders += o.holders
	st.redefineNs = append(st.redefineNs, o.redefineNs...)
}

// table renders the span tree with total and self time per span.
func (st *spanStats) table() []string {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	rows := []string{fmt.Sprintf("%-12s %9s %12s %12s", "span", "count", "total ms", "self ms")}
	add := func(name string, count int, total, self int64) {
		rows = append(rows, fmt.Sprintf("%-12s %9d %12.3f %12.3f", name, count, ms(total), ms(self)))
	}
	add("lane", shards, st.lane, st.lane-st.root)
	add("  op-root", st.ops, st.root, st.root-st.classify-st.gateWait-st.op)
	add("    classify", st.ops, st.classify, st.classify)
	add("    gate-wait", st.ops, st.gateWait, st.gateWait)
	add("    op", st.ops, st.op, st.op)
	if st.redefines > 0 {
		add("redefine", st.redefines, st.redefine, st.redefine)
	}
	return rows
}

// writeSpans writes one traced round's spans as tab-separated lines,
// host times in ns relative to the driver call: one "op" line per
// operation carrying its four stamps (the op-root, classify, gate-wait
// and op spans are the intervals between them) and one "redefine" line
// per redefinition.
func writeSpans(path string, rd *round) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind\tclient\titer\tlane\tclass\tclassify_start\tclassify_end\top_start\top_end\treproofs\treproof_ns\tfailed")
	for c, rs := range rd.recs {
		for i, r := range rs {
			fmt.Fprintf(w, "op\t%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%t\n", c, i, rd.lanes[c], r.cls,
				r.t0-rd.start, r.t1-rd.start, r.t2-rd.start, r.t3-rd.start, r.reproofs, r.reproof, r.failed)
		}
	}
	for i, d := range rd.redefs {
		fmt.Fprintf(w, "redefine\t-1\t%d\t-1\t-\t%d\t%d\t%d\t%d\t0\t0\tfalse\n", i, d.start-rd.start, d.end-rd.start, d.start-rd.start, d.end-rd.start)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
