package bench

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestAllocGateRegexMatchesCI pins the CI allocation gate to
// AllocGateBench: the workflow must quote the constant verbatim, so
// renaming a gated benchmark (or adding a new reuse variant) forces
// both sides to move together.
func TestAllocGateRegexMatchesCI(t *testing.T) {
	data, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatalf("reading workflow: %v", err)
	}
	if !strings.Contains(string(data), "-bench='"+AllocGateBench+"'") {
		t.Fatalf("ci.yml allocation gate does not use AllocGateBench = %q verbatim", AllocGateBench)
	}
}

// TestAllocGateRegexSelectsReuseBenchmarks keeps the regex itself
// honest: it must select every AdderReuse variant and nothing else.
func TestAllocGateRegexSelectsReuseBenchmarks(t *testing.T) {
	re := regexp.MustCompile(AllocGateBench)
	for _, name := range []string{
		"BenchmarkAdderReuse",
		"BenchmarkAdderReuseMonoid",
		"BenchmarkAdderReuseSched",
		"BenchmarkAdderReuseFaultsOff",
		"BenchmarkAdderReuseDtype",
	} {
		if !re.MatchString(name) {
			t.Errorf("%s not selected by %q", name, AllocGateBench)
		}
	}
	for _, name := range []string{
		"BenchmarkAdderReuseX",
		"BenchmarkAdder",
		"BenchmarkPoolThroughput",
	} {
		if re.MatchString(name) {
			t.Errorf("%s unexpectedly selected by %q", name, AllocGateBench)
		}
	}
}
