package main

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"wqe/internal/par"
)

// The HTTP server's timeouts. A client has readHeaderTimeout to send a
// request's headers, and a keep-alive connection may idle idleTimeout
// between requests — far above the gaps of a closed-loop client.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// debugMux serves net/http/pprof. It is mounted only on the -debug
// listener, never on the serving mux.
func debugMux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/debug/pprof/", pprof.Index)
	m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	m.HandleFunc("/debug/pprof/profile", pprof.Profile)
	m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return m
}

// serveDebug listens on addr and serves debugMux there from a goroutine
// of group, until the returned server is closed.
func serveDebug(addr string, group *par.Group) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: debugMux(), ReadHeaderTimeout: readHeaderTimeout}
	group.Go(func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "wqe-serve: debug listener:", err)
		}
	})
	return srv, ln.Addr(), nil
}
