package placement

import "testing"

func TestTileEdges(t *testing.T) {
	cases := []struct {
		dim, t int
		want   []int
	}{
		{10, 2, []int{0, 5, 10}},
		{10, 3, []int{0, 3, 6, 10}},
		{1, 4, []int{0, 1}}, // t clamped to dim
		{5, 0, []int{0, 5}}, // t clamped to 1
		{7, 7, []int{0, 1, 2, 3, 4, 5, 6, 7}},
	}
	for _, c := range cases {
		got := TileEdges(c.dim, c.t)
		if len(got) != len(c.want) {
			t.Fatalf("TileEdges(%d,%d) = %v, want %v", c.dim, c.t, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("TileEdges(%d,%d) = %v, want %v", c.dim, c.t, got, c.want)
			}
		}
	}
}

// TestPartitionCovers checks that every site lands in exactly one tile and
// the tiles come back in row-major tile order.
func TestPartitionCovers(t *testing.T) {
	grids := []Grid{
		{Rows: 24, Cols: 24, SiteW: 2, SiteH: 2},
		{Rows: 4, Cols: 64, SiteW: 2, SiteH: 2},
		{Rows: 1, Cols: 1, SiteW: 2, SiteH: 2},
		{Rows: 5, Cols: 3, SiteW: 1.5, SiteH: 2.5},
	}
	for _, g := range grids {
		for _, tt := range []int{1, 2, 3, 5, 8} {
			tiles := Partition(g, tt)
			seen := make([]int, g.Sites())
			for idx, tile := range tiles {
				if tile.Rows() <= 0 || tile.Cols() <= 0 {
					t.Fatalf("grid %v t=%d: tile %d empty: %+v", g, tt, idx, tile)
				}
				if tile.Sites() != tile.Rows()*tile.Cols() {
					t.Fatalf("grid %v t=%d: tile %d Sites mismatch", g, tt, idx)
				}
				for r := tile.Row0; r < tile.Row1; r++ {
					for c := tile.Col0; c < tile.Col1; c++ {
						if !tile.Contains(r, c) {
							t.Fatalf("grid %v t=%d: tile %d !Contains(%d,%d)", g, tt, idx, r, c)
						}
						seen[r*g.Cols+c]++
					}
				}
			}
			for s, n := range seen {
				if n != 1 {
					t.Fatalf("grid %v t=%d: site %d covered %d times", g, tt, s, n)
				}
			}
			// Row-major tile order: Row0 non-decreasing, Col0 increasing
			// within a tile row.
			for i := 1; i < len(tiles); i++ {
				a, b := tiles[i-1], tiles[i]
				if b.Row0 < a.Row0 || (b.Row0 == a.Row0 && b.Col0 <= a.Col0) {
					t.Fatalf("grid %v t=%d: tiles not in row-major order at %d", g, tt, i)
				}
			}
		}
	}
}
