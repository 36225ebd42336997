package repro_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestGoldenCmdOutput pins the default CLI output of every command and
// example byte-for-byte against testdata/golden/*.golden, captured
// before the facade moved from internal/core to the public memtest
// package — the API redesign must not change what the tools print.
func TestGoldenCmdOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run per case")
	}
	cases := []struct {
		name string
		args []string
	}{
		{"bisdsim_hetero", []string{"./cmd/bisdsim", "-fleet", "hetero"}},
		{"bisdsim_hetero_drf_repair", []string{"./cmd/bisdsim", "-fleet", "hetero", "-drf", "-spare-words", "1", "-spare-cells", "2"}},
		{"bisdsim_hetero_classify", []string{"./cmd/bisdsim", "-fleet", "hetero", "-drf", "-classify", "-scanout"}},
		{"bisdsim_compare", []string{"./cmd/bisdsim", "-fleet", "hetero", "-compare"}},
		{"bisdsim_benchmark", []string{"./cmd/bisdsim", "-fleet", "benchmark", "-scheme", "baseline"}},
		{"diagtime_default", []string{"./cmd/diagtime"}},
		{"diagtime_sweep", []string{"./cmd/diagtime", "-sweep"}},
		{"areacalc_default", []string{"./cmd/areacalc"}},
		{"marchcat_list", []string{"./cmd/marchcat"}},
		{"marchcat_eval", []string{"./cmd/marchcat", "-eval", "a(w0); u(r0,w1); d(r1,w0); a(r0)"}},
		{"faultsim_small", []string{"./cmd/faultsim", "-n", "32", "-c", "8", "-samples", "40"}},
		{"faultsim_csv", []string{"./cmd/faultsim", "-n", "32", "-c", "8", "-samples", "40", "-csv"}},
		{"example_quickstart", []string{"./examples/quickstart"}},
		{"example_heterosoc", []string{"./examples/heterosoc"}},
		{"example_drfdiagnosis", []string{"./examples/drfdiagnosis"}},
		{"example_repairyield", []string{"./examples/repairyield"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.Command("go", append([]string{"run"}, tc.args...)...).CombinedOutput()
			if err != nil {
				t.Fatalf("go run %v: %v\n%s", tc.args, err, got)
			}
			if string(got) != string(want) {
				t.Errorf("output drifted from golden %s.golden:\n--- got ---\n%s\n--- want ---\n%s",
					tc.name, got, want)
			}
		})
	}
}
