// Command pasksrv serves the simulated PASK stack over HTTP: a what-if
// service for cold-start planning.
//
//	pasksrv -addr :8080
//	curl -X POST localhost:8080/v1/coldstart -d '{"model":"res","compare":true}'
//
// With -debug-addr, host profiles of the server itself (net/http/pprof) are
// served on a second listener:
//
//	pasksrv -addr :8080 -debug-addr 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"

	"pask/internal/httpapi"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	debugAddr := flag.String("debug-addr", "", "listen address for net/http/pprof host profiles (empty: off)")
	flag.Parse()
	if *debugAddr != "" {
		// Serves until the process exits.
		dbg, err := startDebug(*debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pasksrv host profiles on http://%s/debug/pprof/\n", dbg.Addr())
	}
	fmt.Printf("pasksrv listening on %s\n", *addr)
	fmt.Println("endpoints:")
	fmt.Println("  GET  /v1/models /v1/devices /v1/schemes")
	fmt.Println("  POST /v1/coldstart /v1/serve    (JSON body)")
	fmt.Println("  GET  /v1/experiments            (experiment menu)")
	fmt.Println("  POST /v1/experiments/{name}     (run any experiment; JSON body)")
	fmt.Println("  GET  /v1/runs/{id}/trace        (Chrome trace of a past run)")
	fmt.Println("  GET  /v1/warmup/{model}         (recorded warmup manifest)")
	fmt.Println("  GET  /v1/cacheimages            (published cache images)")
	fmt.Println("  POST /v1/cacheimages            (record and publish an image; JSON body)")
	fmt.Println("  GET  /v1/health                 (per-GPU health states)")
	fmt.Println("  GET  /metrics                   (Prometheus text format)")
	log.Fatal(http.ListenAndServe(*addr, httpapi.New()))
}

// debugServer serves net/http/pprof on its own listener, apart from the API.
type debugServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{} // closed when Serve returns
}

// startDebug listens on addr and serves the pprof index and profiles under
// /debug/pprof/ until Close.
func startDebug(addr string) (*debugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	d := &debugServer{ln: ln, srv: &http.Server{Handler: mux}, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.srv.Serve(ln) // returns ErrServerClosed after Close
	}()
	return d, nil
}

// Addr is the address the listener is bound to.
func (d *debugServer) Addr() net.Addr { return d.ln.Addr() }

// Close stops the listener and its connections, and returns once Serve has
// exited.
func (d *debugServer) Close() error {
	err := d.srv.Close()
	<-d.done
	return err
}
