package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestFaultPlanIsolation checks that a fault plan belongs to the run that
// carries it. Clean coldstarts of a model run while serves of the same model
// carry a plan with store, load and find-path (disable=) faults; every clean
// reply, minus its run id, must equal a solo run's. Run it under -race: the
// runs share one cached model setup, which no run may write to.
func TestFaultPlanIsolation(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	post := func(path, body string) (ColdStartResponse, error) {
		var cs ColdStartResponse
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return cs, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return cs, err
		}
		if resp.StatusCode != http.StatusOK {
			return cs, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, data)
		}
		if path != "/v1/coldstart" {
			return cs, nil
		}
		if err := json.Unmarshal(data, &cs); err != nil {
			return cs, err
		}
		cs.RunID, cs.TraceURL = "", ""
		return cs, nil
	}
	const clean = `{"model":"res","scheme":"PaSK"}`
	const faulted = `{"model":"res","requests":40,"retries":2,"continue_on_error":true,` +
		`"faults":"transient=0.5,permanent=0.2,disable=0.3,seed=4"}`
	solo, err := post("/v1/coldstart", clean)
	if err != nil {
		t.Fatal(err)
	}

	// Clean coldstarts keep coming until every faulted serve has finished,
	// so each serve overlaps some of them.
	const n = 4
	done := make(chan struct{})
	var serves, cleans sync.WaitGroup
	for i := 0; i < n; i++ {
		serves.Add(1)
		go func() {
			defer serves.Done()
			if _, err := post("/v1/serve", faulted); err != nil {
				t.Error(err)
			}
		}()
		cleans.Add(1)
		go func() {
			defer cleans.Done()
			for {
				got, err := post("/v1/coldstart", clean)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, solo) {
					t.Errorf("clean coldstart beside faulted serves = %+v, want the solo reply %+v", got, solo)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	serves.Wait()
	close(done)
	cleans.Wait()
}
