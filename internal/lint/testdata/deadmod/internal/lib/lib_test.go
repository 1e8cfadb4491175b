package lib

import "testing"

func TestLib(t *testing.T) {
	if UsedByCmd() != Reference() || OnlyTests() != 2 || Bare() != 5 {
		t.Fatal("fixture values changed")
	}
}
