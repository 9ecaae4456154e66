//go:build !faultinject

package faultinject

import "testing"

// TestInactiveFireIsNil: without the build tag no point can fail a query.
func TestInactiveFireIsNil(t *testing.T) {
	if Enabled {
		t.Fatal("Enabled without the faultinject tag")
	}
	for _, name := range Points {
		if err := Fire(name); err != nil {
			t.Fatalf("Fire(%q) = %v, want nil", name, err)
		}
	}
}
