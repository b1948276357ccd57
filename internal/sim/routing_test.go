package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ccncoord/internal/fault"
	"ccncoord/internal/topology"
)

// TestRunDenseVsLRUByteIdentical runs one scenario under the dense and
// LRU routing backends and requires identical results down to the
// serialized manifest bytes: the data plane only consults Next, which
// the LRU backend answers bit-identically.
func TestRunDenseVsLRUByteIdentical(t *testing.T) {
	results := make([]Result, 0, 2)
	manifests := make([][]byte, 0, 2)
	for _, b := range []topology.Backend{topology.BackendDense, topology.BackendLRU} {
		sc := testScenario()
		sc.Requests = 8000
		sc.Routing = b
		sc.EmitManifest = true
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("%v backend: %v", b, err)
		}
		var buf bytes.Buffer
		if err := res.Manifest.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		manifests = append(manifests, buf.Bytes())
		res.Manifest = nil
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("dense and LRU results differ:\ndense: %+v\nlru:   %+v", results[0], results[1])
	}
	if !bytes.Equal(manifests[0], manifests[1]) {
		t.Error("dense and LRU run manifests are not byte-identical")
	}
}

// TestValidateRejectsFaultsOnSparseBackends pins the early, clearly
// errored fallback for fault scenarios on the LRU routing backend.
func TestValidateRejectsFaultsOnSparseBackends(t *testing.T) {
	sc := testScenario()
	sc.Routing = topology.BackendLRU
	sc.RetxTimeout = 300
	sc.FaultScript = []fault.Event{{At: 100, Kind: fault.RouterDown, Node: 1}}
	err := sc.Validate()
	if err == nil {
		t.Fatal("faults with the lru backend should fail validation")
	}
	if !strings.Contains(err.Error(), "dense routing backend") {
		t.Errorf("faults with the lru backend: unhelpful error %v", err)
	}
	// The same scenario without faults is fine.
	sc.FaultScript = nil
	if err := sc.Validate(); err != nil {
		t.Errorf("faultless lru backend rejected: %v", err)
	}
}
