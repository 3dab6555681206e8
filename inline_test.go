package tokenaccount_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestHostSendInlinesPayloadSize guards the one call runtime.Host.Send makes
// per message to weigh it: the compiler's inlining report for the runtime
// package must show protocol.PayloadSize inlined into runtime/host.go. The
// check is one-sided, so a toolchain that inlines more still passes; a
// PayloadSize grown past the inlining budget, or marked //go:noinline, fails
// it.
func TestHostSendInlinesPayloadSize(t *testing.T) {
	out, err := exec.Command("go", "build", "-gcflags=-m", "./runtime").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m ./runtime: %v\n%s", err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.Contains(line, "runtime/host.go:") && strings.HasSuffix(line, "inlining call to protocol.PayloadSize") {
			return
		}
	}
	t.Errorf("runtime/host.go does not inline protocol.PayloadSize; the inlining report:\n%s", out)
}
