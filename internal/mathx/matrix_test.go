package mathx

import "testing"

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("NewMatrix shape wrong: %+v", m)
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At/Set roundtrip failed")
	}
	row := m.Row(1)
	if row[2] != 7 {
		t.Fatalf("Row view wrong: %v", row)
	}
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row is not a mutable view")
	}
}

func TestMatrixClone(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with the original")
	}
}

func TestMatrixAddScaled(t *testing.T) {
	a := NewMatrix(2, 2)
	b := NewMatrix(2, 2)
	for i := range b.Data {
		b.Data[i] = float64(i + 1)
	}
	a.AddScaled(2, b)
	if a.Data[3] != 8 {
		t.Fatalf("AddScaled = %v", a.Data)
	}
}

func TestMatrixMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 1, 1})
	if dst[0] != 6 || dst[1] != 15 {
		t.Fatalf("MulVec = %v", dst)
	}
	dt := make([]float64, 3)
	m.MulVecT(dt, []float64{1, 1})
	if dt[0] != 5 || dt[1] != 7 || dt[2] != 9 {
		t.Fatalf("MulVecT = %v", dt)
	}
}

func TestMatrixPanics(t *testing.T) {
	m := NewMatrix(2, 2)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Row out of range", func() { m.Row(5) })
	mustPanic("MulVec mismatch", func() { m.MulVec(make([]float64, 2), make([]float64, 3)) })
	mustPanic("NewMatrix negative", func() { NewMatrix(-1, 2) })
	mustPanic("AddScaled mismatch", func() { m.AddScaled(1, NewMatrix(1, 1)) })
}

func TestMatrixZeroAndNorm(t *testing.T) {
	m := NewMatrix(1, 2)
	m.Data[0], m.Data[1] = 3, 4
	if got := Norm2(m.Data); got != 5 {
		t.Fatalf("Norm2(Data) = %g, want 5", got)
	}
	m.Zero()
	if m.Data[0] != 0 || m.Data[1] != 0 {
		t.Fatal("Zero failed")
	}
}

func TestRowRange(t *testing.T) {
	m := NewMatrix(10, 3)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	w := m.RowRange(4, 7)
	if w.Rows != 3 || w.Cols != 3 {
		t.Fatalf("window shape %dx%d", w.Rows, w.Cols)
	}
	if &w.Data[0] != &m.Data[12] {
		t.Error("RowRange copied instead of viewing")
	}
	if w.At(0, 0) != 12 || w.At(2, 2) != 20 {
		t.Errorf("window contents %v", w.Data)
	}
	// Full and empty windows are legal; writes through the view land in m.
	if f := m.RowRange(0, 10); f.Rows != 10 {
		t.Errorf("full window has %d rows", f.Rows)
	}
	if e := m.RowRange(5, 5); e.Rows != 0 {
		t.Errorf("empty window has %d rows", e.Rows)
	}
	w.Set(0, 0, -1)
	if m.At(4, 0) != -1 {
		t.Error("view write did not reach the parent")
	}
	for _, bad := range [][2]int{{-1, 2}, {3, 2}, {0, 11}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RowRange(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			m.RowRange(bad[0], bad[1])
		}()
	}
}
