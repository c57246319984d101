package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestDebugListenerServesPprof(t *testing.T) {
	dbg, err := startDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	resp, err := http.Get("http://" + dbg.Addr().String() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index lists no goroutine profile:\n%s", body)
	}
}
