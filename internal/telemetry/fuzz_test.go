package telemetry

import (
	"strings"
	"testing"
)

// FuzzParseTraceparent feeds arbitrary header values to the traceparent
// parser, which reads them straight off inbound requests: it must never
// panic, and whatever it accepts must be a well-formed, non-zero trace
// and span ID that survives a round trip through FormatTraceparent.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add(" 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00 ")
	f.Add("00-00000000000000000000000000000000-00f067aa0ba902b7-01")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01")
	f.Add("00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra")
	f.Add("garbage")
	f.Add("")

	f.Fuzz(func(t *testing.T, h string) {
		traceID, spanID, ok := ParseTraceparent(h)
		if !ok {
			if traceID != "" || spanID != "" {
				t.Fatalf("rejected %q but returned IDs (%q, %q)", h, traceID, spanID)
			}
			return
		}
		if len(traceID) != traceIDLen || !isHex(traceID) || traceID == strings.Repeat("0", traceIDLen) {
			t.Fatalf("accepted %q with trace ID %q", h, traceID)
		}
		if len(spanID) != spanIDLen || !isHex(spanID) || spanID == strings.Repeat("0", spanIDLen) {
			t.Fatalf("accepted %q with span ID %q", h, spanID)
		}
		if !strings.Contains(h, traceID+"-"+spanID) {
			t.Fatalf("IDs (%q, %q) are not the fields of %q", traceID, spanID, h)
		}
		t2, s2, ok := ParseTraceparent(FormatTraceparent(traceID, spanID))
		if !ok || t2 != traceID || s2 != spanID {
			t.Fatalf("round trip of (%q, %q) gave (%q, %q, %v)", traceID, spanID, t2, s2, ok)
		}
	})
}
