package conformance

import "testing"

// TestMatrix is experiment E9: every capability the paper claims for
// OWTE rules — including the ones it says contemporary systems lack —
// must hold on this implementation.
func TestMatrix(t *testing.T) {
	matrix := Matrix()
	if len(matrix) < 12 {
		t.Fatalf("matrix has only %d rows", len(matrix))
	}
	for _, f := range matrix {
		if !f.Supported {
			t.Errorf("feature %q failed: %s", f.Name, f.Detail)
			continue
		}
		t.Logf("PASS %-58s lacking in: %s", f.Name, f.MissingIn)
	}
}

func TestMatrixIsDeterministic(t *testing.T) {
	a := Matrix()
	b := Matrix()
	if len(a) != len(b) {
		t.Fatal("matrix size varies")
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Supported != b[i].Supported {
			t.Fatalf("row %d varies: %+v vs %+v", i, a[i], b[i])
		}
	}
}
