package cluster

import (
	"bytes"
	"testing"

	"faulthound/internal/fault"
)

// FuzzShardRequest decodes POST /v1/cluster/run bodies the way the
// worker does and, for every shard Validate accepts (up to 4096
// injections), draws its descriptor stream as the worker's preparation
// does: an accepted shard must never panic the worker. The seed corpus
// lives in testdata/fuzz/FuzzShardRequest.
func FuzzShardRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeShard(bytes.NewReader(body))
		if err != nil || req.Fault.Injections > 4096 {
			return
		}
		if n := len(fault.DrawInjections(req.Fault)); n != req.Fault.Injections {
			t.Fatalf("drew %d descriptors for %d injections", n, req.Fault.Injections)
		}
	})
}
