package cluster

import (
	"bytes"
	"testing"

	"faulthound/internal/fault"
)

// FuzzShardRequest decodes POST /v1/cluster/run bodies the way the
// worker does. Every shard Validate accepts must be within the
// injection ceiling, and (up to 4096 injections, to keep the loop fast)
// its descriptor stream is drawn as the worker's preparation draws it:
// an accepted shard must never panic the worker. The seed corpus lives
// in testdata/fuzz/FuzzShardRequest.
func FuzzShardRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeShard(bytes.NewReader(body))
		if err != nil {
			return
		}
		if n := req.Fault.Injections; n > fault.MaxInjections {
			t.Fatalf("accepted a shard of %d injections, above the ceiling of %d", n, fault.MaxInjections)
		}
		if req.Fault.Injections > 4096 {
			return
		}
		if n := len(fault.DrawInjections(req.Fault)); n != req.Fault.Injections {
			t.Fatalf("drew %d descriptors for %d injections", n, req.Fault.Injections)
		}
	})
}
