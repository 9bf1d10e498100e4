package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"testing"
	"time"

	"stagedweb/internal/dbtier"
	"stagedweb/internal/httpwire"
	"stagedweb/internal/sched"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/stage"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
	"stagedweb/internal/webtest"
	"stagedweb/perfbench/bench"
)

// replayTime is how long each single-layer replay measures.
const replayTime = "150ms"

var initTesting sync.Once

// measure runs fn(n), which performs n operations, under
// testing.Benchmark and returns ns and allocations per operation.
func measure(fn func(n int) error) (nsPerOp, allocsPerOp float64, err error) {
	initTesting.Do(func() {
		testing.Init()
		err = flag.CommandLine.Set("test.benchtime", replayTime)
	})
	if err != nil {
		return 0, 0, err
	}
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		if err := fn(b.N); err != nil && runErr == nil {
			runErr = err
		}
	})
	if runErr != nil {
		return 0, 0, runErr
	}
	if r.N == 0 {
		return 0, 0, fmt.Errorf("replay did not run")
	}
	return float64(r.T.Nanoseconds()) / float64(r.N), float64(r.MemAllocs) / float64(r.N), nil
}

// replays times single layers on inputs captured from the workload: the
// generator's requests, and the statements and template data of the
// reference handlers run with the workload's parameters.
func replays(res *result, w *bench.Workload, ref *reference, seed int64) error {
	in, err := captureInputs(ref)
	if err != nil {
		return err
	}
	type step struct {
		name string
		run  func(*result) error
	}
	steps := []step{
		{"httpwire", func(r *result) error { return replayWire(r, w, seed, in.home) }},
		{"server", replayServer},
		{"stage", replayStage},
		{"template", func(r *result) error { return replayTemplates(r, ref, in) }},
		{"sqldb", func(r *result) error { return replayStatements(r, ref, in) }},
	}
	for _, s := range steps {
		if err := s.run(res); err != nil {
			return fmt.Errorf("%s replay: %w", s.name, err)
		}
	}
	return nil
}

func replayWire(res *result, w *bench.Workload, seed int64, body []byte) error {
	sess := bench.NewSession(w, seed, 0)
	reqs := make([][]byte, 64)
	for i := range reqs {
		_, target := sess.Next()
		reqs[i] = []byte("GET " + target + " HTTP/1.1\r\nHost: tpcw\r\nUser-Agent: perfbench\r\nConnection: keep-alive\r\n\r\n")
	}
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	ns, allocs, err := measure(func(n int) error {
		for i := 0; i < n; i++ {
			rd.Reset(reqs[i%len(reqs)])
			br.Reset(rd)
			if _, err := httpwire.ReadRequest(br); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.add("httpwire.parse_ns", ns, "ns", 0, "ReadRequest of a generated request")
	res.add("httpwire.parse_allocs", allocs, "count", 0, "ReadRequest allocations")
	resp := &httpwire.Response{Status: 200, Body: body, KeepAlive: true}
	bw := bufio.NewWriter(io.Discard)
	ns, _, err = measure(func(n int) error {
		for i := 0; i < n; i++ {
			if err := resp.Write(bw); err != nil {
				return err
			}
		}
		return nil
	})
	res.add("httpwire.write_ns", ns, "ns", 0, fmt.Sprintf("Response.Write of the %d-byte home page", len(body)))
	return err
}

// replayServer times a no-op page through each server variant over a
// keep-alive connection.
func replayServer(res *result) error {
	app := webtest.NewApp().AddPage("/noop", func(*server.Request) (*server.Result, error) {
		return &server.Result{Body: "ok"}, nil
	})
	for _, name := range []string{variant.Modified, variant.Unmodified} {
		v, _ := variant.Lookup(name)
		inst, err := v.Build(variant.Env{App: app, DB: sqldb.Open(sqldb.Options{Timescale: 1, Cost: sqldb.ZeroCostModel()}), Scale: 1})
		if err != nil {
			return err
		}
		l, noopAddr, err := webtest.Listen()
		if err != nil {
			inst.Stop()
			return err
		}
		done := make(chan error, 1)
		go func() { done <- inst.Serve(l) }()
		c, err := webtest.Dial(noopAddr)
		if err == nil {
			var ns float64
			ns, _, err = measure(func(n int) error {
				for i := 0; i < n; i++ {
					if resp, err := c.Do("/noop", true); err != nil || resp.Status != 200 {
						return fmt.Errorf("noop: status %v, %v", statusOf(resp), err)
					}
				}
				return nil
			})
			c.Close()
			res.add("server.noop_rtt_us."+name, ns/1e3, "us", 0, "no-op page, keep-alive round trip")
		}
		inst.Stop()
		<-done
		if err != nil {
			return err
		}
	}
	return nil
}

// replayAccept times a fresh connection for one static file, closed
// after the response, against the benchmark's untraced server.
func replayAccept(res *result, addr string) error {
	ns, _, err := measure(func(n int) error {
		for i := 0; i < n; i++ {
			if resp, err := webtest.Get(addr, "/img/banner.gif"); err != nil || resp.Status != 200 {
				return fmt.Errorf("static: status %v, %v", statusOf(resp), err)
			}
		}
		return nil
	})
	res.add("server.accept_us", ns/1e3, "us", 0, "fresh connection, one static file, close")
	return err
}

// replayStage times a stage hop and the Table 1 dispatch decision.
func replayStage(res *result) error {
	hopped := make(chan struct{})
	st := stage.New(stage.Config[int]{Name: "hop", Workers: 1, Work: func(int) { hopped <- struct{}{} }})
	st.Start()
	ns, _, err := measure(func(n int) error {
		for i := 0; i < n; i++ {
			if err := st.Submit(i); err != nil {
				return err
			}
			<-hopped
		}
		return nil
	})
	st.Stop()
	if err != nil {
		return err
	}
	res.add("stage.hop_ns", ns, "ns", 0, "Submit to a one-worker stage until the work runs")

	cls := sched.NewClassifier(time.Millisecond)
	d := sched.NewDispatcher(cls, sched.NewReserveController(20), func() int { return 8 })
	pages := tpcw.Pages
	for i, p := range pages {
		cls.Record(p, time.Duration(i)*200*time.Microsecond)
	}
	ns, _, err = measure(func(n int) error {
		for i := 0; i < n; i++ {
			d.Choose(pages[i%len(pages)])
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.add("sched.choose_ns", ns, "ns", 0, "Dispatcher.Choose")
	ns, _, err = measure(func(n int) error {
		for i := 0; i < n; i++ {
			cls.Record(pages[i%len(pages)], 500*time.Microsecond)
		}
		return nil
	})
	res.add("sched.record_ns", ns, "ns", 0, "Classifier.Record")
	return err
}

func replayTemplates(res *result, ref *reference, in *replayInputs) error {
	set := ref.app.Templates()
	for _, page := range renderPages {
		r := in.data[page]
		ns, allocs, err := measure(func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := set.Render(r.Template, r.Data); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		res.add("template.render_us."+page, ns/1e3, "us", 0, "Set.Render "+r.Template)
		res.add("template.render_allocs."+page, allocs, "count", 0, "Set.Render allocations")
	}
	return nil
}

// replayStatements times each captured statement on the reference
// database, and the dbtier path against the raw connection.
func replayStatements(res *result, ref *reference, in *replayInputs) error {
	conn := ref.db.Connect()
	defer conn.Close()
	exec := func(c server.DBConn, s stmt) error {
		if s.write {
			_, err := c.Exec(s.sql, s.args...)
			return err
		}
		_, err := c.Query(s.sql, s.args...)
		return err
	}
	for _, sn := range stmtNames {
		s := in.stmts[sn.name]
		rows0 := ref.db.PlanRowsRead()
		var n int
		ns, allocs, err := measure(func(k int) error {
			n += k
			for i := 0; i < k; i++ {
				if err := exec(conn, s); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		res.add("sqldb.exec_us."+sn.name, ns/1e3, "us", 0, "Conn statement, zero cost model")
		res.add("sqldb.allocs."+sn.name, allocs, "count", 0, "allocations per statement")
		res.add("sqldb.rows_read."+sn.name, float64(ref.db.PlanRowsRead()-rows0)/float64(n), "count", 0, "row versions visited per statement")
	}

	tier := dbtier.New(ref.db, dbtier.Options{Conns: 1})
	defer tier.Close()
	// The raw and tier paths alternate, twice each, and the faster of
	// each pair is kept, so a pause of the host hits neither alone.
	pk := in.stmts["item_pk"]
	per := [2]float64{math.Inf(1), math.Inf(1)}
	for round := 0; round < 4; round++ {
		c := []server.DBConn{conn, tier.Conn()}[round%2]
		ns, _, err := measure(func(n int) error {
			for i := 0; i < n; i++ {
				if err := exec(c, pk); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		per[round%2] = min(per[round%2], ns)
	}
	res.add("dbtier.stmt_overhead_ns", per[1]-per[0], "ns", 0, "tier Conn().Query minus raw sqldb Conn, item PK lookup: "+strconv.FormatFloat(per[0], 'f', 0, 64)+" ns raw")
	return nil
}

func statusOf(r *webtest.Response) int {
	if r == nil {
		return 0
	}
	return r.Status
}
