package lazyrand

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// streamDraws crosses the rngTap boundary several times over, so every
// test covers the seed-only prefix, the switch and the fallback.
const streamDraws = 1500

// testSeeds returns the edge seeds of rngSource.Seed's normalisation
// (zero and the multiples of 2³¹−1 all map to the substitute seed
// 89482311, negatives wrap) plus a few hundred seeded-random seeds.
func testSeeds() []int64 {
	seeds := []int64{
		0, 1, -1,
		int32max, -int32max, 2 * int32max,
		int32max - 1, int32max + 1,
		math.MinInt64, math.MaxInt64,
		89482311,
	}
	r := rand.New(rand.NewSource(20180411))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

func TestRawStreamMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		got := NewSource(seed)
		for i := 0; i < streamDraws; i++ {
			if i%2 == 0 {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d: Uint64 draw %d = %d, want %d", seed, i+1, g, w)
				}
			} else if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, i+1, g, w)
			}
		}
	}
}

func TestReseedRestartsStream(t *testing.T) {
	got, want := NewSource(7), rand.NewSource(7)
	for i := 0; i < rngTap+10; i++ {
		got.Int63()
	}
	got.Seed(-42)
	want.Seed(-42)
	for i := 0; i < streamDraws; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("after Seed(-42): draw %d = %d, want %d", i+1, g, w)
		}
	}
}

func TestRandMethodsMatchMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		// Each round draws a handful of values; rounds continue past
		// rngTap so the methods also run on the fallback source.
		for round := 0; round < 40; round++ {
			if g, w := got.Intn(1000), want.Intn(1000); g != w {
				t.Fatalf("seed %d round %d: Intn = %d, want %d", seed, round, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d round %d: Float64 = %v, want %v", seed, round, g, w)
			}
			gp, wp := got.Perm(5), want.Perm(5)
			for i := range gp {
				if gp[i] != wp[i] {
					t.Fatalf("seed %d round %d: Perm = %v, want %v", seed, round, gp, wp)
				}
			}
			gs, ws := []int{0, 1, 2, 3, 4, 5, 6}, []int{0, 1, 2, 3, 4, 5, 6}
			got.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
			want.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
			for i := range gs {
				if gs[i] != ws[i] {
					t.Fatalf("seed %d round %d: Shuffle = %v, want %v", seed, round, gs, ws)
				}
			}
			gb, wb := make([]byte, 11), make([]byte, 11)
			_, _ = got.Read(gb)
			_, _ = want.Read(wb)
			if !bytes.Equal(gb, wb) {
				t.Fatalf("seed %d round %d: Read = %x, want %x", seed, round, gb, wb)
			}
		}
	}
}

// TestSeedAndDrawIsSmall pins the point of the package: seeding a
// generator and drawing once costs the Source and the Rand, not the
// ~5 KB state array math/rand.NewSource allocates.
func TestSeedAndDrawIsSmall(t *testing.T) {
	var sink float64
	seed := int64(0)
	draw := func() {
		seed++
		sink += New(seed).Float64()
	}
	if allocs := testing.AllocsPerRun(100, draw); allocs > 2 {
		t.Errorf("New+Float64 makes %v allocations, want at most 2", allocs)
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		draw()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp >= 1024 {
		t.Errorf("New+Float64 allocates %d B, want under 1 KB", perOp)
	}
	if sink == 0 {
		t.Fatal("no values drawn")
	}
}

func BenchmarkNewFloat64(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += New(int64(i)).Float64()
	}
	if sink == 0 {
		b.Fatal("no values drawn")
	}
}

func BenchmarkMathRandNewFloat64(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += rand.New(rand.NewSource(int64(i))).Float64()
	}
	if sink == 0 {
		b.Fatal("no values drawn")
	}
}
