package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"spkadd/internal/core"
	"spkadd/internal/generate"
)

func smokeConfig(buf *bytes.Buffer) Config {
	return Config{Out: buf, Reps: 1, Scale: 8, Threads: 1}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("nope", smokeConfig(&buf)); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTable5Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table5", smokeConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table V", "Sliding Hash", "Eukarya-like"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("summa simulation in -short mode")
	}
	var buf bytes.Buffer
	if err := Run("fig6", smokeConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig 6", "Heap", "Unsorted Hash", "Local Multiply"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestReuseSmoke(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Out: &buf, Reps: 1, Scale: 8, Threads: 1}
	if err := Run("reuse", cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Workspace reuse", "Hash", "SPA", "Heap", "k=2 d=4", "k=32 d=64"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkHarnessTimeAdd tracks the harness's own measurement path
// (one pooled-workspace Add per op); its allocs/op is the one-shot
// API's allocation footprint.
func BenchmarkHarnessTimeAdd(b *testing.B) {
	as := generate.ERCollection(8, generate.Opts{Rows: 1 << 12, Cols: 32, NNZPerCol: 8, Seed: 41})
	opt := core.Options{Algorithm: core.Hash, Threads: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := timeAdd(as, opt, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSkipEstimate(t *testing.T) {
	// Huge pairwise cells are skipped; k-way algorithms never are.
	if !skipEstimate(core.MapIncremental, 128, 1024, 8192) {
		t.Error("giant MapIncremental cell not skipped")
	}
	if skipEstimate(core.MapIncremental, 4, 64, 16) {
		t.Error("tiny MapIncremental cell skipped")
	}
	if skipEstimate(core.Hash, 128, 1024, 8192) || skipEstimate(core.Heap, 128, 1024, 8192) {
		t.Error("k-way algorithms must never be skipped")
	}
}

func TestFmtDur(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want string
	}{
		{1234567890, "1.235"},
		{234567 * time.Nanosecond, "0.0002346"},
		{212 * time.Microsecond, "0.000212"},
	} {
		if got := fmtDur(c.d); got != c.want {
			t.Errorf("fmtDur(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestTuneAndAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweeps in -short mode")
	}
	var buf bytes.Buffer
	cfg := Config{Out: &buf, Reps: 1, Scale: 16, Threads: 1}
	if err := Run("tune", cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "best table size") {
		t.Error("tuner output incomplete")
	}
	buf.Reset()
	if err := Run("ablation", cfg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sorted"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}
