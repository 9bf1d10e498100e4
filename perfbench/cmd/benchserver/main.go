// Command benchserver runs the TPC-W bookstore on the staged server for
// one benchmark workload, in a process of its own, so that the CPU time,
// allocations and memory it reports exclude the load generator.
//
//	benchserver -workload browse [-trace]
//
// The cost model is zeroed (sqldb.ZeroCostModel, zero server.WorkCost,
// timescale 1): every measured microsecond is Go CPU or queueing.
// Once serving, it prints "addr <host:port>" and then answers one JSON
// line per command read from standard input:
//
//	stats           runtime counters, probes and the orders row count
//	orders <json>   which acknowledged [c_id, o_id] orders exist
//	spans           the spans recorded since start (with -trace)
//	quit            stop serving and exit (so does end of input)
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"

	"stagedweb/internal/cluster"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
	"stagedweb/perfbench/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchserver:", err)
		os.Exit(1)
	}
}

// system is the running server: one database per shard, and either a
// single instance or a balancer over one instance per shard.
type system struct {
	dbs  []*sqldb.DB
	ring *cluster.Ring
	inst variant.Instance
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchserver", flag.ContinueOnError)
	name := fs.String("workload", "", "benchmark workload to serve")
	trace := fs.Bool("trace", false, "record spans for the \"spans\" command")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := bench.Lookup(*name)
	if err != nil {
		return err
	}
	var tr *tracer
	if *trace {
		tr = &tracer{}
	}
	sys, err := build(w, tr)
	if err != nil {
		return err
	}
	defer sys.inst.Stop()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- sys.inst.Serve(l) }()

	out := bufio.NewWriter(os.Stdout)
	reply := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, _ = out.Write(append(b, '\n'))
		return out.Flush()
	}
	fmt.Fprintf(out, "addr %s\n", l.Addr())
	if err := out.Flush(); err != nil {
		return err
	}

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 64<<20)
	for in.Scan() {
		cmd, arg, _ := strings.Cut(in.Text(), " ")
		var err error
		switch cmd {
		case "stats":
			err = reply(sys.stats())
		case "orders":
			var acked [][2]int
			if err = json.Unmarshal([]byte(arg), &acked); err == nil {
				var res bench.Orders
				res, err = sys.checkOrders(acked)
				if err == nil {
					err = reply(res)
				}
			}
		case "spans":
			if tr == nil {
				err = fmt.Errorf("spans: started without -trace")
			} else {
				err = reply(tr.snapshot())
			}
		case "quit":
			return nil
		default:
			err = fmt.Errorf("unknown command %q", cmd)
		}
		if err != nil {
			return err
		}
		select {
		case err := <-serveErr:
			return fmt.Errorf("serve: %v", err)
		default:
		}
	}
	return in.Err()
}

// build populates the databases and starts the workload's server.
func build(w *bench.Workload, tr *tracer) (*system, error) {
	opts, set, clustered, err := cluster.DecodeSettings(w.Settings, nil)
	if err != nil {
		return nil, err
	}
	sys := &system{}
	nShards := 1
	if clustered {
		nShards = opts.Shards
		if sys.ring, err = cluster.NewRing(nShards, opts.VNodes); err != nil {
			return nil, err
		}
	}
	var counts tpcw.Counts
	for s := 0; s < nShards; s++ {
		db := sqldb.Open(sqldb.Options{Timescale: 1, Cost: sqldb.ZeroCostModel()})
		if err := tpcw.CreateTables(db); err != nil {
			return nil, err
		}
		var owns func(int) bool
		if clustered {
			shard := s
			owns = func(cID int) bool { return sys.ring.Owner(tpcw.CustomerKey(cID)) == shard }
		}
		if counts, err = tpcw.PopulateShard(db, bench.Population, owns); err != nil {
			return nil, err
		}
		if variant.IndexesEnabled(set, nil) {
			if err := tpcw.CreateExtraIndexes(db); err != nil {
				return nil, err
			}
		}
		sys.dbs = append(sys.dbs, db)
	}

	var app server.App = tpcw.NewApp(counts, nil)
	var onComplete func(server.CompletionEvent)
	if tr != nil {
		app = tracedApp{App: app, t: tr}
		onComplete = tr.complete
	}
	v, ok := variant.Lookup(variant.Modified)
	if !ok {
		return nil, fmt.Errorf("variant %q not registered", variant.Modified)
	}
	insts := make([]variant.Instance, nShards)
	for s := range insts {
		insts[s], err = v.Build(variant.Env{
			App:        app,
			DB:         sys.dbs[s],
			Scale:      1,
			Cost:       server.WorkCost{},
			OnComplete: onComplete,
			Set:        set,
		})
		if err != nil {
			for _, built := range insts[:s] {
				built.Stop()
			}
			return nil, err
		}
	}
	if !clustered {
		sys.inst = insts[0]
		return sys, nil
	}
	bal, err := cluster.New(opts, insts, func(path string, q map[string]string) cluster.Decision {
		key, fanout := tpcw.ShardKey(path, q)
		return cluster.Decision{Key: key, Fanout: fanout}
	})
	if err != nil {
		for _, built := range insts {
			built.Stop()
		}
		return nil, err
	}
	sys.inst = bal
	return sys, nil
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/live:bytes",
}

func (sys *system) stats() bench.Stats {
	samples := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var r bench.Stats
	r.Allocs = samples[0].Value.Uint64()
	r.GCCPUSec = samples[1].Value.Float64()
	r.TotalCPUSec = samples[2].Value.Float64()
	r.GCCycles = samples[3].Value.Uint64()
	r.HeapLive = samples[4].Value.Uint64()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.CPUNS = ru.Utime.Nano() + ru.Stime.Nano()
	}
	r.HWMKiB = vmHWM()
	for _, db := range sys.dbs {
		if n, err := db.TableSize("orders"); err == nil {
			r.Orders += n
		}
	}
	r.Probes = map[string]float64{}
	for _, p := range sys.inst.Probes() {
		r.Probes[p.Name] = p.Gauge()
	}
	return r
}

// vmHWM reads the process's peak resident set size in KiB, or -1.
func vmHWM() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err == nil {
				return n
			}
		}
	}
	return -1
}

// checkOrders looks every acknowledged order up on the shard that owns
// its customer.
func (sys *system) checkOrders(acked [][2]int) (bench.Orders, error) {
	var r bench.Orders
	conns := make([]*sqldb.Conn, len(sys.dbs))
	for i, db := range sys.dbs {
		conns[i] = db.Connect()
		defer conns[i].Close()
		n, err := db.TableSize("orders")
		if err != nil {
			return r, err
		}
		r.Rows = append(r.Rows, n)
	}
	for _, o := range acked {
		shard := 0
		if sys.ring != nil {
			shard = sys.ring.Owner(tpcw.CustomerKey(o[0]))
		}
		rs, err := conns[shard].Query("SELECT o_id FROM orders WHERE o_id = ? AND o_c_id = ?", o[1], o[0])
		if err != nil {
			return r, err
		}
		if rs.Len() == 1 {
			r.Present++
		} else {
			r.Missing = append(r.Missing, o[1])
		}
	}
	return r, nil
}
