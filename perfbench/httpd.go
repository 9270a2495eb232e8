package main

import (
	"net"
	"net/http"
)

// httpd serves one in-process handler (a daemon or the router) on an
// ephemeral loopback port.
type httpd struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func serveHTTP(h http.Handler) (*httpd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &httpd{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return d, nil
}

// close stops the listener and every open connection, then waits for the
// serving goroutine to return.
func (d *httpd) close() {
	d.hs.Close()
	<-d.done
}
