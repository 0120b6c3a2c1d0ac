package fleet

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"wsmalloc/internal/core"
	"wsmalloc/internal/heapprof"
	"wsmalloc/internal/policy"
	"wsmalloc/internal/workload"
)

// TestRunFlagsSpec pins the run-spec binder's checks and defaults: the
// errors the CLIs print, what -metrics-out and -serve imply, the
// checkpoint cadence default and the heap-profile seed.
func TestRunFlagsSpec(t *testing.T) {
	const ms = workload.Millisecond
	unknownPerCPU := `policy: unknown percpu policy "warp" (registered: ewma, hetero, static)`
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
		check   func(RunSpec) bool
	}{
		{"defaults", nil, "", func(s RunSpec) bool {
			return s.Seed == 1 && s.DurationMs == 250 && !s.DesignSet && !s.Telemetry &&
				s.HeapProfile == heapprof.Config{} && !s.Lifecycle.Enabled() && s.RetuneDesign == ""
		}},
		{"resume without dir", []string{"-resume"}, "-resume and -kill-frac need -checkpoint-dir", nil},
		{"kill without dir", []string{"-kill-frac", "0.5"}, "-resume and -kill-frac need -checkpoint-dir", nil},
		{"retune time alone", []string{"-retune-at-ms", "5"}, "-retune-design and -retune-at-ms must be used together", nil},
		{"retune design alone", []string{"-retune-design", "optimized"}, "-retune-design and -retune-at-ms must be used together", nil},
		{"unknown design", []string{"-design", "percpu=warp"}, "-design: " + unknownPerCPU, nil},
		{"unknown retune design", []string{"-retune-design", "percpu=warp", "-retune-at-ms", "5"}, "-retune-design: " + unknownPerCPU, nil},
		{"metrics-out implies telemetry", []string{"-metrics-out", "base"}, "", func(s RunSpec) bool {
			return s.Telemetry && s.MetricsOut == "base"
		}},
		{"serve implies telemetry", []string{"-serve", ":0"}, "", func(s RunSpec) bool {
			return s.Telemetry && s.ServeAddr == ":0"
		}},
		{"cadence defaults to a quarter run", []string{"-duration-ms", "40", "-checkpoint-dir", "d", "-checkpoint-every-ms", "0"}, "", func(s RunSpec) bool {
			return s.Lifecycle.Checkpoint.EveryNs == 10*ms && s.Lifecycle.Checkpoint.Dir == "d"
		}},
		{"explicit cadence", []string{"-checkpoint-dir", "d", "-checkpoint-every-ms", "7", "-kill-frac", "0.5"}, "", func(s RunSpec) bool {
			return s.Lifecycle.Checkpoint.EveryNs == 7*ms && s.Lifecycle.Checkpoint.KillAtFrac == 0.5
		}},
		{"heapprof seeded by -seed", []string{"-heapprof", "-seed", "9", "-heapprof-interval", "4096"}, "", func(s RunSpec) bool {
			return s.HeapProfile == heapprof.Config{Enabled: true, SampleIntervalBytes: 4096, Seed: 9}
		}},
		{"interval alone leaves heapprof off", []string{"-heapprof-interval", "4096"}, "", func(s RunSpec) bool {
			return s.HeapProfile == heapprof.Config{}
		}},
		{"design and retune resolve", []string{"-design", "optimized", "-retune-design", "baseline", "-retune-at-ms", "5"}, "", func(s RunSpec) bool {
			return s.DesignSet && s.Design == policy.Optimized() && reflect.DeepEqual(s.Config, core.OptimizedConfig()) &&
				s.RetuneAtNs == 5*ms && s.RetuneDesign == policy.Baseline().String()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			rf := BindRunFlags(fs, 250)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			s, err := rf.Spec()
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("error %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !tc.check(s) {
				t.Fatalf("spec %+v", s)
			}
		})
	}
}

// TestServeAnnouncesBoundPort checks that -serve binds before it
// announces: a ":0" server prints the port the kernel picked, and that
// address answers /healthz.
func TestServeAnnouncesBoundPort(t *testing.T) {
	pr, pw := io.Pipe()
	go func() {
		err := RunSpec{ServeAddr: "127.0.0.1:0"}.Serve(pw, "test", RunExport{}, map[string]any{})
		pw.CloseWithError(fmt.Errorf("Serve returned: %v", err))
	}()
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatalf("reading the announcement: %v", err)
	}
	_, addr, ok := strings.Cut(strings.TrimSpace(line), " on ")
	if !ok || strings.HasSuffix(addr, ":0") {
		t.Fatalf("announcement names no bound port: %q", line)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz at the announced address: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("/healthz: status %d body %q err %v", resp.StatusCode, body, err)
	}
}
