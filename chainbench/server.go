package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"levioso/internal/dispatch"
	"levioso/internal/serve"
)

// clients is the closed-loop client count of cached and batch: one per
// processor, so load never exceeds what the host can run at once.
func clients() int { return runtime.GOMAXPROCS(0) }

// httpServer is a serve.Server on a loopback HTTP listener.
type httpServer struct {
	srv *serve.Server
	hs  *http.Server
	url string
	// errc receives Serve's return value once the listener closes.
	errc chan error
}

// startHTTP serves srv on an ephemeral loopback port.
func startHTTP(srv *serve.Server) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &httpServer{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		errc: make(chan error, 1),
	}
	go func() { h.errc <- h.hs.Serve(ln) }()
	return h, nil
}

// close shuts the HTTP server down, waits for Serve to return and closes
// the levserve server.
func (h *httpServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.errc; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := h.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// newClient returns an HTTP client keeping one idle connection per closed
// loop client.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients()}}
}

// post sends body to url and returns the response body of a 200 reply.
func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// workerDaemon is a dispatch.ListenWorkers daemon on a loopback port, the
// `levserve -worker-listen` shape.
type workerDaemon struct {
	addr   string
	cancel context.CancelFunc
	errc   chan error
}

// startDaemon starts a worker daemon with the given options.
func startDaemon(opts dispatch.ListenOptions) (*workerDaemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &workerDaemon{addr: ln.Addr().String(), cancel: cancel, errc: make(chan error, 1)}
	go func() { d.errc <- dispatch.ListenWorkers(ctx, ln, opts) }()
	return d, nil
}

// close drains the daemon and waits for it to return.
func (d *workerDaemon) close() error {
	d.cancel()
	return <-d.errc
}
