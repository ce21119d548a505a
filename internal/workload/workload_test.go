package workload

import (
	"context"
	"testing"

	"circuitql/internal/query"
)

func TestUniformBinary(t *testing.T) {
	r := UniformBinary(1, 50, 20)
	if r.Len() != 50 {
		t.Fatalf("Len = %d", r.Len())
	}
	// Deterministic under the same seed.
	if !r.Equal(UniformBinary(1, 50, 20)) {
		t.Fatal("not deterministic")
	}
	if r.Equal(UniformBinary(2, 50, 20)) {
		t.Fatal("seed has no effect")
	}
}

func TestUniformBinaryPanicsOnSmallDomain(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	UniformBinary(1, 100, 5)
}

func TestSkewedBinaryIsSkewed(t *testing.T) {
	r := SkewedBinary(3, 200, 100, 1.3)
	if r.Len() != 200 {
		t.Fatalf("Len = %d", r.Len())
	}
	u := UniformBinary(3, 200, 100)
	if r.Degree("x") <= u.Degree("x") {
		t.Fatalf("skewed degree %d not above uniform %d", r.Degree("x"), u.Degree("x"))
	}
}

func TestFDBinary(t *testing.T) {
	r := FDBinary(5, 30, 100)
	if r.Len() != 30 {
		t.Fatalf("Len = %d", r.Len())
	}
	// x -> y: degree of x is 1.
	if d := r.Degree("x"); d != 1 {
		t.Fatalf("deg(x) = %d, want 1 (FD)", d)
	}
}

func TestWorstCaseTriangle(t *testing.T) {
	db := WorstCaseTriangle(16)
	q := query.Triangle()
	out, err := query.EvaluateCtx(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	// side = 4: 4³ = 64 triangles from 16-tuple relations.
	if db["R"].Len() != 16 || out.Len() != 64 {
		t.Fatalf("|R| = %d, |Q| = %d", db["R"].Len(), out.Len())
	}
}

func TestTriangleDBKinds(t *testing.T) {
	for _, kind := range []TriangleKind{TriangleUniform, TriangleSkewed, TriangleWorstCase} {
		db := TriangleDB(kind, 9, 30)
		for _, name := range []string{"R", "S", "T"} {
			if db[name] == nil || db[name].Len() == 0 {
				t.Fatalf("kind %d: missing %s", kind, name)
			}
		}
	}
}

func TestForQuery(t *testing.T) {
	q := query.LoomisWhitney4()
	db := ForQuery(q, 21, 25)
	if len(db) != 4 {
		t.Fatalf("relations = %d", len(db))
	}
	for name, r := range db {
		if r.Arity() != 3 {
			t.Fatalf("%s arity = %d", name, r.Arity())
		}
		if r.Len() != 25 {
			t.Fatalf("%s len = %d", name, r.Len())
		}
	}
	if _, err := query.EvaluateCtx(context.Background(), q, db); err != nil {
		t.Fatal(err)
	}
}
