// Command pasksrv serves the simulated PASK stack over HTTP: a what-if
// service for cold-start planning.
//
//	pasksrv -addr :8080
//	curl -X POST localhost:8080/v1/coldstart -d '{"model":"res","compare":true}'
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"

	"pask/internal/httpapi"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	flag.Parse()
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
