package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"pfcache/internal/front"
	"pfcache/internal/service"
)

// TestNameTransportRoutesFixedNames checks that the front's ring sees the
// fixed fleet names, and that every name dials the listener it maps to.
func TestNameTransportRoutesFixedNames(t *testing.T) {
	addrs := map[string]string{}
	var lns []*listener
	for i, name := range fleetNames {
		i := i
		l, err := listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, "listener-%d", i)
		}))
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, l)
		addrs[strings.TrimPrefix(name, "http://")] = l.addr()
	}
	defer func() {
		for _, l := range lns {
			l.close()
		}
	}()
	tr := newNameTransport(addrs)
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	for i, name := range fleetNames {
		resp, err := c.Get(name + "/whoami")
		if err != nil {
			t.Fatalf("GET via %s: %v", name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := fmt.Sprintf("listener-%d", i); string(body) != want {
			t.Errorf("%s reached %q, want %q", name, body, want)
		}
	}
	if _, err := c.Get("http://localhost:9999/"); err == nil {
		t.Error("an unmapped name was dialled; want a refusal")
	}

	f, err := front.New(frontOptions(c))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st := f.Stats(context.Background())
	for i, b := range st.Backends {
		if b.URL != fleetNames[i] {
			t.Errorf("front backend %d is %q, want the fixed name %q", i, b.URL, fleetNames[i])
		}
	}
}

// TestStackServesThroughFixedNames runs a schedule request through a real
// front-plus-three-backends stack and checks the reply names a fleet
// backend and matches the reference bytes.
func TestStackServesThroughFixedNames(t *testing.T) {
	st, err := newStack(stackConfig{viaFront: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	req := &service.ScheduleRequest{Strategy: "aggressive",
		Workload: &service.WorkloadSpec{Kind: "zipf", N: 40, Blocks: 10, Seed: 3}, K: 5, F: 4}
	body, _ := json.Marshal(req)
	resp, err := http.Post(st.entry+"/v1/schedule", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if b := resp.Header.Get("X-Backend"); !contains(fleetNames, b) {
		t.Errorf("X-Backend %q is not a fleet name", b)
	}
	want, err := service.ScheduleBody(req, lpOptsReference())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("served %s, want %s", got, want)
	}
}

func contains(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the metric
// definitions in step.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			g := metricDef{got[i].Name, got[i].Unit, got[i].Better}
			if g != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark reports %+v", what, i, g, want[i])
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndMetrics)
	check("per_layer", bj.PerLayer, perLayerMetrics())
	if len(bj.Workloads) != len(benchmarkWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(bj.Workloads), len(benchmarkWorkloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != benchmarkWorkloads[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, benchmarkWorkloads[i])
		}
	}
}
