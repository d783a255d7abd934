package workload

import (
	"testing"

	"timekeeping/internal/trace"
)

// BenchmarkStream measures reference generation per ref over the
// profile set, one stream per profile, switching streams every 4096
// refs as a batched consumer would.
func BenchmarkStream(b *testing.B) {
	var streams []trace.Stream
	for _, n := range Names() {
		s := MustProfile(n)
		streams = append(streams, s.Stream(1))
	}
	var r trace.Ref
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streams[(i/4096)%len(streams)].Next(&r)
	}
}
