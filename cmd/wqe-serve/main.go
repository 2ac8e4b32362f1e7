// Command wqe-serve is the long-lived Why-question server: it loads one
// or more attributed graphs, builds a chase.Session per graph (shared
// distance oracle, sharded star-view cache), and
// serves Ask/AskFast/AskAll/Why/WhyEmpty/WhyMany over HTTP+JSON.
//
//	wqe-serve -addr :8080 -graph products=g.json
//	wqe-serve -graph big=big.snap          # binary snapshot, sniffed by magic
//	wqe-serve -graph a=a.json -graph b=b.json -slots 4 -queue 64
//
// -graph accepts either on-disk format: graph JSON or the binary
// snapshot written by wqe-datagen -snapshot / wqe -save-snapshot,
// recognized by its leading magic bytes. A snapshot with embedded PLL
// labels restores the distance index instead of rebuilding it, so a
// million-node graph cold-starts in seconds; /stats reports each
// graph's source format, snapshot version, and load time.
//
// Endpoints (see README "Serving" for payloads):
//
//	POST /ask       one Why-question; algo selectable (answ default)
//	POST /askfast   beam-search heuristic (interactive latency)
//	POST /why       AnsW + differential table + rendered explanation
//	POST /whyempty  removal-only Why-Empty rewrite
//	POST /whymany   Why-Many refinement
//	POST /askall    batch of questions over one shared session
//	GET  /graphs    resident graphs
//	GET  /stats     queue gauges, request counters, session/cache counters
//	GET  /healthz   liveness
//
// Operational contract: admission is bounded (-slots running jobs, up
// to -queue waiting; beyond that 429), every request's time budget is
// anchored at submission so queue wait counts against it, a
// disconnected client cancels its chase mid-beam within one claim
// iteration, and SIGINT/SIGTERM drains gracefully — no new job starts,
// every in-flight job finishes and is answered.
//
// The answer memo (-answer-cache, on by default) serves repeated
// questions from cache and coalesces identical concurrent requests onto
// one chase; memoized chases run detached from request deadlines, so a
// deadline-limited request served from the memo receives the complete
// answer rather than a best-so-far cut. /stats reports hit/miss/
// coalesced counters per graph and per-endpoint latency percentiles.
//
// A request body may hold up to 8 MiB (413 beyond that), and is decoded
// in one pass (decode.go). -debug addr serves net/http/pprof on a
// listener of its own, off by default:
//
//	wqe-serve -graph g=g.snap -debug 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wqe/internal/chase"
	"wqe/internal/graphload"
	"wqe/internal/par"
)

// graphFlags collects repeated -graph name=path values.
type graphFlags []string

func (g *graphFlags) String() string { return strings.Join(*g, ",") }
func (g *graphFlags) Set(v string) error {
	*g = append(*g, v)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("wqe-serve", flag.ContinueOnError)
	var graphs graphFlags
	fs.Var(&graphs, "graph", "resident graph as name=path.json (repeatable)")
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address")
		slots       = fs.Int("slots", 0, "max concurrently running jobs (0 = one per logical CPU)")
		queueCap    = fs.Int("queue", 64, "max jobs waiting beyond the running ones (admission bound)")
		timeout     = fs.Duration("timeout", 30*time.Second, "default per-request budget, anchored at submission (0 = unlimited)")
		budget      = fs.Float64("budget", 3, "operator cost budget B")
		theta       = fs.Float64("theta", 1, "vsim closeness threshold θ")
		lambda      = fs.Float64("lambda", 1, "irrelevant-match penalty λ")
		maxBound    = fs.Int("maxbound", 3, "edge bound cap b_m")
		workers     = fs.Int("workers", 0, "how many of one /askall request's jobs run at once (0 = one per logical CPU); a question runs on one goroutine")
		answerCache = fs.Int("answer-cache", 4096, "answer memo capacity in entries: identical requests are served from cache and identical concurrent requests coalesce onto one chase (0 disables)")
		debugAddr   = fs.String("debug", "", "serve net/http/pprof on this address, on a listener of its own (empty: off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := chase.DefaultConfig()
	cfg.Budget = *budget
	cfg.Theta = *theta
	cfg.Lambda = *lambda
	cfg.MaxBound = *maxBound
	cfg.Workers = *workers
	cfg.AnswerCacheCap = *answerCache

	if len(graphs) == 0 {
		fmt.Fprintln(os.Stderr, "wqe-serve: need at least one -graph name=path.json")
		return 2
	}
	handles, err := loadHandles(graphs, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wqe-serve:", err)
		return 1
	}
	srv := newServer(handles, par.Workers(*slots), *queueCap, *timeout)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wqe-serve:", err)
		return 1
	}
	httpSrv := &http.Server{
		Handler:           srv.mux(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	// The accept loops live on par.Group goroutines; the main goroutine
	// owns the signal-driven shutdown sequence and joins the group
	// before exiting, so the process never leaks a server.
	var group par.Group
	var debugSrv *http.Server
	if *debugAddr != "" {
		var daddr net.Addr
		if debugSrv, daddr, err = serveDebug(*debugAddr, &group); err != nil {
			fmt.Fprintln(os.Stderr, "wqe-serve: debug listener:", err)
			if cerr := ln.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "wqe-serve:", cerr)
			}
			return 1
		}
		fmt.Printf("wqe-serve: debug listener on %s (net/http/pprof)\n", daddr)
	}
	var serveErr error
	group.Go(func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			serveErr = err
		}
	})
	fmt.Printf("wqe-serve: listening on %s (%d graphs, %d slots, queue %d)\n",
		ln.Addr(), len(handles), par.Workers(*slots), *queueCap)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("wqe-serve: draining...")

	// Drain order matters: stop admitting and wait for in-flight jobs
	// first (their responses still need the connections), then shut the
	// HTTP server down — Shutdown waits for idle connections only.
	srv.drain()
	if err := httpSrv.Shutdown(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "wqe-serve: shutdown:", err)
	}
	if debugSrv != nil {
		// Close, not Shutdown: a profile being taken would hold it open.
		if err := debugSrv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "wqe-serve: debug listener:", err)
		}
	}
	group.Wait()
	if serveErr != nil {
		fmt.Fprintln(os.Stderr, "wqe-serve:", serveErr)
		return 1
	}
	fmt.Println("wqe-serve: drained, bye")
	return 0
}

// loadHandles loads every -graph name=path pair (JSON or binary
// snapshot, sniffed) and builds its resident session — over the
// restored PLL index when the snapshot embeds one.
func loadHandles(specs []string, cfg chase.Config) ([]*graphHandle, error) {
	var out []*graphHandle
	seen := map[string]bool{}
	for _, spec := range specs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			return nil, fmt.Errorf("bad -graph %q: want name=path", spec)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate -graph name %q", name)
		}
		seen[name] = true
		res, err := graphload.Open(path)
		if err != nil {
			return nil, fmt.Errorf("load graph %q: %w", name, err)
		}
		out = append(out, &graphHandle{
			name:        name,
			g:           res.G,
			session:     chase.NewSessionWithIndex(res.G, cfg, res.Index),
			source:      res.Source,
			snapVersion: res.SnapshotVersion,
			pllRestored: res.PLLRestored(),
			loadMS:      float64(res.Elapsed) / float64(time.Millisecond),
		})
	}
	return out, nil
}
