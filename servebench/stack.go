package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"pfcache/internal/front"
	"pfcache/internal/lp"
	"pfcache/internal/service"
)

// fleetNames are the backend URLs the front is configured with: the
// EXPERIMENTS.md quickstart fleet.  The ring hashes these names, so fixing
// them (instead of using the random loopback ports the listeners get) makes
// every run place keys on backends the same way a deployed fleet would.
var fleetNames = []string{
	"http://localhost:8081",
	"http://localhost:8082",
	"http://localhost:8083",
}

// serverOptions is a backend configured with the pcserve flag defaults
// (-cache 1024, -shards 0 = one per CPU, -queue 0 = depth 64, revised
// simplex with steepest-edge pricing over an LU basis), not with the
// service.Options zero values (which, for one, disable the response cache).
func serverOptions() service.Options {
	return service.Options{
		Shards:       runtime.GOMAXPROCS(0),
		QueueDepth:   64,
		CacheEntries: 1024,
		Solver:       lp.MethodRevised,
		Pricing:      lp.PricingSteepestEdge,
		Basis:        lp.BasisLU,
	}
}

// frontOptions is a front configured with the pcfront flag defaults.
func frontOptions(client *http.Client) front.Options {
	return front.Options{
		Backends:         fleetNames,
		HealthInterval:   time.Second,
		FailThreshold:    3,
		RestoreThreshold: 2,
		RequestTimeout:   15 * time.Second,
		AttemptTimeout:   5 * time.Second,
		RetryBaseDelay:   25 * time.Millisecond,
		BreakerThreshold: 5,
		BreakerCooldown:  2 * time.Second,
		SweepTimeout:     10 * time.Minute,
		StatsTimeout:     2 * time.Second,
		Client:           client,
	}
}

// nameDialer maps the fixed fleet host:port names onto the addresses the
// in-process listeners actually got.  Any other address is refused, so a
// request can never leave the process's own listeners.
type nameDialer struct {
	addrs map[string]string // "localhost:8081" -> "127.0.0.1:40123"
	d     net.Dialer
}

func (n *nameDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	real, ok := n.addrs[addr]
	if !ok {
		return nil, fmt.Errorf("servebench: no in-process listener named %s", addr)
	}
	return n.d.DialContext(ctx, network, real)
}

// newNameTransport returns a transport that dials the named listeners.
func newNameTransport(addrs map[string]string) *http.Transport {
	nd := &nameDialer{addrs: addrs}
	return &http.Transport{
		DialContext:         nd.DialContext,
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     time.Minute,
	}
}

// listener is one loopback HTTP server of the stack.
type listener struct {
	ln  net.Listener
	srv *http.Server
	err chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("servebench: listen: %w", err)
	}
	l := &listener{ln: ln, err: make(chan error, 1),
		srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}}
	go func() { l.err <- l.srv.Serve(ln) }()
	return l, nil
}

func (l *listener) addr() string { return l.ln.Addr().String() }

// close shuts the server down and waits for its Serve goroutine.
func (l *listener) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serr := <-l.err; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// stack is the in-process serving stack: one or three service.Server
// backends on loopback listeners, optionally behind a front.Front on its own
// listener.  Clients talk to entry over real TCP, exactly as to pcserve or
// pcfront.
type stack struct {
	servers   []*service.Server
	backends  []*listener
	front     *front.Front
	frontLn   *listener
	transport *http.Transport // the front's backend transport
	entry     string          // base URL clients send to
}

// wrapper decorates a handler; the traced run uses it to record spans.
type wrapper func(http.Handler) http.Handler

// stackConfig selects the topology and the tracing hooks.
type stackConfig struct {
	viaFront    bool
	wrapServer  wrapper
	wrapFront   wrapper
	wrapBackend func(http.RoundTripper) http.RoundTripper
}

// newStack starts the backends (three behind a front, or one served
// directly) and, when asked, the front.
func newStack(cfg stackConfig) (*stack, error) {
	n := 1
	if cfg.viaFront {
		n = len(fleetNames)
	}
	st := &stack{}
	for i := 0; i < n; i++ {
		srv := service.NewServer(serverOptions())
		st.servers = append(st.servers, srv)
		var h http.Handler = srv
		if cfg.wrapServer != nil {
			h = cfg.wrapServer(h)
		}
		l, err := listen(h)
		if err != nil {
			st.close()
			return nil, err
		}
		st.backends = append(st.backends, l)
	}
	if !cfg.viaFront {
		st.entry = "http://" + st.backends[0].addr()
		return st, nil
	}
	addrs := make(map[string]string, n)
	for i, name := range fleetNames {
		addrs[strings.TrimPrefix(name, "http://")] = st.backends[i].addr()
	}
	st.transport = newNameTransport(addrs)
	var rt http.RoundTripper = st.transport
	if cfg.wrapBackend != nil {
		rt = cfg.wrapBackend(rt)
	}
	f, err := front.New(frontOptions(&http.Client{Transport: rt}))
	if err != nil {
		st.close()
		return nil, err
	}
	st.front = f
	var h http.Handler = f
	if cfg.wrapFront != nil {
		h = cfg.wrapFront(h)
	}
	l, err := listen(h)
	if err != nil {
		st.close()
		return nil, err
	}
	st.frontLn = l
	st.entry = "http://" + l.addr()
	return st, nil
}

// close stops the listeners, the front's health checkers and the backends'
// shard goroutines, in that order.
func (st *stack) close() error {
	var errs []error
	if st.frontLn != nil {
		errs = append(errs, st.frontLn.close())
	}
	if st.front != nil {
		st.front.Close()
	}
	if st.transport != nil {
		st.transport.CloseIdleConnections()
	}
	for _, l := range st.backends {
		errs = append(errs, l.close())
	}
	for _, s := range st.servers {
		s.Close()
	}
	return errors.Join(errs...)
}
