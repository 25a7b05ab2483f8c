package harness

import "testing"

func TestGeneralizedShape(t *testing.T) {
	t.Parallel()
	tab, err := Generalized(Options{Insts: 150_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	for _, col := range tab.Cols {
		trad := tab.Cell("traditional", col)
		multi := tab.Cell("multithreaded(1)", col)
		if !(multi < trad) {
			t.Errorf("%s: multithreaded emulation (%.1f) not cheaper than traditional (%.1f)", col, multi, trad)
		}
		if trad <= 0 {
			t.Errorf("%s: traditional penalty %.1f not positive", col, trad)
		}
	}
}
