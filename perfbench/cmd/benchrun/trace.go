package main

import (
	"fmt"
	"time"

	"stagedweb/internal/cluster"
	"stagedweb/internal/variant"
	"stagedweb/perfbench/bench"
)

// tracedRun measures the per-layer metrics. An untraced and a traced
// server run side by side, and the closed loop alternates between them
// in windows, so the tracing overhead compares the two under the same
// host conditions; the untraced windows also give the runtime counters.
// The traced server then takes the open loop, and single-layer replays
// follow.
func tracedRun(res *result, w *bench.Workload, bin string, ref *reference, seed int64, total time.Duration) error {
	p, _, _, err := startMeasured(w, bin, 1, 0)
	if err != nil {
		return err
	}
	defer p.stop()
	if w.Precheck {
		if err := precheck(p.addr, ref, res.ck); err != nil {
			return err
		}
	}
	tp, err := startServer(bin, w.Name, true)
	if err != nil {
		return err
	}
	defer tp.stop()
	clients := newClients(p.addr, w, seed, res.ck, false)
	defer closeClients(clients)
	tclients := newClients(tp.addr, w, seed+1, res.ck, true)
	defer closeClients(tclients)
	res.count(closedLoop(clients, warmup))
	res.count(closedLoop(tclients, warmup))
	var warm bench.Trace
	if err := tp.call("spans", &warm); err != nil {
		return err
	}
	s0, err := p.stats()
	if err != nil {
		return err
	}
	t0, err := tp.stats()
	if err != nil {
		return err
	}
	const pairs = 3
	var capU, capT []float64
	var ureqs, treqs int64
	var spans []bench.ClientSpan
	for i := 0; i < pairs; i++ {
		u := closedLoop(clients, total*3/10/pairs)
		t := closedLoop(tclients, total*4/10/pairs)
		res.count(u)
		res.count(t)
		capU = append(capU, float64(u.requests)/u.wall.Seconds())
		capT = append(capT, float64(t.requests)/t.wall.Seconds())
		ureqs += u.requests
		treqs += t.requests
		spans = append(spans, t.clients...)
	}
	s1, err := p.stats()
	if err != nil {
		return err
	}
	closeClients(clients)
	if err := verifyOrders(p, res, clients); err != nil {
		return err
	}
	if err := replayAccept(res, p.addr); err != nil {
		return fmt.Errorf("accept replay: %w", err)
	}
	p.stop()

	tol := openLoop(tclients, bench.Arrivals(seed, w.Rate, (total*3/10).Seconds()))
	t1, err := tp.stats()
	if err != nil {
		return err
	}
	closeClients(tclients)
	var tr bench.Trace
	if err := tp.call("spans", &tr); err != nil {
		return err
	}
	// Drop the warm-up's spans; its client spans were not kept.
	tr.Server = tr.Server[len(warm.Server):]
	tr.Handlers = tr.Handlers[len(warm.Handlers):]
	tr.Statics = tr.Statics[len(warm.Statics):]
	if err := verifyOrders(tp, res, tclients); err != nil {
		return err
	}
	res.count(tol)

	// Runtime counters of the untraced server.
	res.add("runtime.gc_cpu_frac", (s1.GCCPUSec-s0.GCCPUSec)/(s1.TotalCPUSec-s0.TotalCPUSec), "ratio", 0, "untraced closed loop")
	res.add("runtime.gc_cycles_per_kreq", float64(s1.GCCycles-s0.GCCycles)/float64(ureqs)*1000, "count", int(ureqs), "untraced closed loop")
	res.add("runtime.heap_live_mb", float64(s1.HeapLive)/(1<<20), "MiB", 0, "after the untraced closed loop")
	u, t := bench.Median(capU), bench.Median(capT)
	res.add("tracing.overhead_pct", (u-t)/u*100, "%", 0, fmt.Sprintf("capacity %.0f untraced vs %.0f traced req/s, medians of %d alternating windows", u, t, pairs))
	late := bench.Summarize(append([]float64(nil), tol.late...))
	res.add("client.late_p99_ms", late.Tail, "ms", late.N, tailNote(late))

	spanMetrics(res, &tr, append(spans, tol.clients...))
	probeMetrics(res, t0, t1, float64(treqs+tol.requests))
	return replays(res, w, ref, seed)
}

// spanMetrics derives the traced per-layer times.
func spanMetrics(res *result, tr *bench.Trace, clients []bench.ClientSpan) {
	reqs := bench.Link(tr, clients)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	type classTimes struct{ self, handler, handlerSelf []float64 }
	byClass := map[string]*classTimes{"quick": {}, "lengthy": {}}
	var read, write, hop []float64
	stmts, handlers, unbalanced, linked := 0, 0, 0, 0
	for _, r := range reqs {
		if r.Handler == nil && r.Static == nil {
			continue
		}
		linked++
		b := r.Layers()
		if b.Server+b.Handler+b.DB != r.Server.End-r.Server.Start {
			unbalanced++
		}
		if r.Client != nil {
			hop = append(hop, us((r.Client.End-r.Client.Start)-(r.Server.End-r.Server.Start)))
		}
		if r.Handler == nil {
			continue
		}
		ct := byClass[bench.Class(r.Handler.Page)]
		ct.self = append(ct.self, us(b.Server))
		ct.handler = append(ct.handler, us(r.Handler.End-r.Handler.Start))
		ct.handlerSelf = append(ct.handlerSelf, us(b.Handler))
		handlers++
		for _, d := range r.Handler.DB {
			stmts++
			if d.Write {
				write = append(write, us(d.End-d.Start))
			} else {
				read = append(read, us(d.End-d.Start))
			}
		}
	}
	for _, class := range []string{"quick", "lengthy"} {
		ct := byClass[class]
		add := res.add
		if class == "lengthy" {
			// Only browse issues lengthy pages; these are printed, not
			// part of every workload's metric set.
			if len(ct.self) == 0 {
				continue
			}
			add = res.addInfo
		}
		add("server.self_us."+class, bench.Median(ct.self), "us", len(ct.self), "server span minus handler span, median")
		add("tpcw.handler_us."+class, bench.Median(ct.handler), "us", len(ct.handler), "handler span, median")
		add("tpcw.handler_self_us."+class, bench.Median(ct.handlerSelf), "us", len(ct.handlerSelf), "handler span minus its statements, median")
	}
	res.add("db.stmt_us.read", bench.Median(read), "us", len(read), "wrapped DBConn Query, median")
	res.add("db.stmt_us.write", bench.Median(write), "us", len(write), "wrapped DBConn Exec, median")
	res.add("db.stmts_per_req", float64(stmts)/float64(max(handlers, 1)), "count", handlers, "statements per dynamic request")
	res.add("cluster.hop_us", bench.Median(hop), "us", len(hop), "client request minus server span, median")
	res.addInfo("tracing.linked", float64(linked), "count", len(reqs), "server spans joined to their handler or static span")
	res.addInfo("tracing.unbalanced", float64(unbalanced), "count", linked, "requests whose layer self times do not sum to the server span")
}

// probeMetrics derives the per-layer counts from the traced server's
// probes, read before and after its measured phases.
func probeMetrics(res *result, t0, t1 bench.Stats, reqs float64) {
	d := func(name string) float64 { return t1.Probes[name] - t0.Probes[name] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	lengthy, general := d(variant.ProbeDispatchLengthy), d(variant.ProbeDispatchGeneral)
	res.add("sched.lengthy_share", ratio(lengthy, lengthy+general), "ratio", int(lengthy+general), "dispatch.lengthy / all dispatches")
	res.add("db.wait_per_kreq", d(variant.ProbeDBWait)/reqs*1000, "count", int(reqs), "blocked connection acquisitions")
	res.add("db.rows_read_per_req", d(variant.ProbeDBPlanRows)/reqs, "count", int(reqs), "row versions visited")
	idx, scan := d(variant.ProbeDBPlanIndex), d(variant.ProbeDBPlanScan)
	res.add("db.index_share", ratio(idx, idx+scan), "ratio", int(idx+scan), "index access paths / all")
	hit, miss := d(variant.ProbeDBStmtHits), d(variant.ProbeDBStmtMiss)
	res.add("db.stmtcache_hit_ratio", ratio(hit, hit+miss), "ratio", int(hit+miss), "statement cache hits / lookups")
	res.add("db.conflicts_per_kreq", d(variant.ProbeDBConflicts)/reqs*1000, "count", int(reqs), "MVCC write conflicts")
	res.add("db.repllag_max", max(t0.Probes[variant.ProbeDBReplLag], t1.Probes[variant.ProbeDBReplLag]), "count", 0, "replica lag in log entries, phase ends")
	res.add("db.orders_added", float64(t1.Orders-t0.Orders), "count", 0, "orders rows added")
	imbalance := 1.0 // one server is perfectly balanced
	if v, ok := t1.Probes[cluster.ProbeShardImbalance]; ok {
		imbalance = v
	}
	res.add("cluster.imbalance", imbalance, "ratio", 0, "max shard share / balanced share")
	res.add("cluster.retry_per_kreq", d(cluster.ProbeLBRetry)/reqs*1000, "count", int(reqs), "balancer forward retries")
	res.add("cluster.route_share", d(cluster.ProbeShardRoute)/reqs, "ratio", int(reqs), "requests routed through the balancer (shard.route) / requests")
}
