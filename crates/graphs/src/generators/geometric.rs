//! Random geometric graphs: the canonical wireless-sensor-network topology.
//!
//! The beeping model is motivated by wireless networks where a node's beep is
//! heard by everyone within radio range (§1 of the paper); a random geometric
//! graph — points in the unit square connected when within distance `r` — is
//! the standard abstraction of such a deployment.

use rand::Rng;

use super::rng_from_seed;
use crate::graph::node_id32;
use crate::Graph;

/// Random geometric graph: `n` points uniform in the unit square, edges
/// between pairs at Euclidean distance `< radius`.
///
/// Uses a bucket grid so generation is `O(n + m)` in expectation.
///
/// # Panics
///
/// Panics if `radius` is negative or NaN.
///
/// # Example
///
/// ```
/// let g = graphs::generators::geometric::random_geometric(200, 0.1, 3);
/// assert_eq!(g.len(), 200);
/// ```
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Graph {
    assert!(radius >= 0.0, "radius must be non-negative, got {radius}");
    geometric_from_points(&random_points(n, seed), radius)
}

/// The uniform unit-square point cloud behind [`random_geometric`]: the
/// same `seed` reproduces the same deployment, so
/// `geometric_from_points(&random_points(n, s), r)` equals
/// `random_geometric(n, r, s)`. Exposed so mobility models
/// ([`crate::motion`]) can start from the deployment a static geometric
/// graph was built from.
pub fn random_points(n: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = rng_from_seed(seed);
    (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect()
}

/// The connection radius whose *expected* average degree is `avg_degree`
/// on `n` uniform points (ignoring boundary effects):
/// `r = sqrt(avg_degree / (π (n-1)))`, capped so `r ≤ √2`. This is the
/// radius [`random_geometric_expected_degree`] uses; exposed so mobility
/// setups can target a degree instead of a raw radius.
pub fn radius_for_expected_degree(n: usize, avg_degree: f64) -> f64 {
    assert!(avg_degree >= 0.0, "avg_degree must be non-negative");
    if n < 2 {
        return 0.0;
    }
    let r = (avg_degree / (std::f64::consts::PI * (n as f64 - 1.0))).sqrt();
    r.min(std::f64::consts::SQRT_2)
}

/// Random geometric graph with the radius chosen so the *expected* average
/// degree is `avg_degree` (ignoring boundary effects):
/// `r = sqrt(avg_degree / (π (n-1)))`, capped so `r ≤ √2`.
pub fn random_geometric_expected_degree(n: usize, avg_degree: f64, seed: u64) -> Graph {
    assert!(avg_degree >= 0.0, "avg_degree must be non-negative");
    if n < 2 {
        return Graph::empty(n);
    }
    random_geometric(n, radius_for_expected_degree(n, avg_degree), seed)
}

/// Builds the geometric graph over explicit `points` (unit-square
/// coordinates) with connection `radius`. Exposed so deployments with known
/// sensor positions can be simulated.
///
/// `O(n + m)` in expectation, with no sort: the nodes are counting-sorted
/// into a grid of cells at least `radius` wide (at most about `⌈√n⌉` per
/// side, so a tiny radius cannot blow up its size). Walking the grid in
/// cell order, each node is tested against the rest of its cell and the
/// cell to its right, then the three cells of the row above: a half
/// stencil that tests each pair once, from one endpoint, which decides it
/// as the other would (`(a - b)²` and `(b - a)²` are equal bit for bit).
/// The hits are written both ways into per-node runs, and one transpose of
/// those writes every CSR slice sorted. The cell order is dropped after
/// the scan and the pair list before the CSR array is allocated.
///
/// # Panics
///
/// Panics if `radius` is negative or NaN, or if there are more than
/// `u32::MAX` points.
pub fn geometric_from_points(points: &[(f64, f64)], radius: f64) -> Graph {
    assert!(radius >= 0.0, "radius must be non-negative, got {radius}");
    let n = points.len();
    assert!(n <= u32::MAX as usize, "graphs are limited to u32::MAX nodes");
    if n < 2 || radius == 0.0 {
        return Graph::empty(n);
    }
    // Cells never narrower than `radius`, so a node's neighbors all lie in
    // its 3×3 block of cells.
    let cell = radius.max(1.0 / (n as f64).sqrt().ceil());
    let side = (1.0 / cell).ceil().max(1.0) as usize;
    let cell_of = |(x, y): (f64, f64)| -> usize {
        let cx = ((x / cell) as usize).min(side - 1);
        let cy = ((y / cell) as usize).min(side - 1);
        cy * side + cx
    };
    // Counting sort by cell: cell `c` holds `order[start[c]..start[c + 1]]`,
    // in increasing id order, with the coordinates copied alongside. There
    // are about n cells, so a cell id fits in a `u32`.
    let cells = side * side;
    let cell_ids: Vec<u32> = points.iter().map(|&p| node_id32(cell_of(p))).collect();
    let mut start = vec![0usize; cells + 1];
    for &c in &cell_ids {
        start[c as usize] += 1;
    }
    for c in 1..start.len() {
        start[c] += start[c - 1];
    }
    let mut order = vec![(0u32, (0.0, 0.0)); n];
    for (i, &p) in points.iter().enumerate().rev() {
        let c = cell_ids[i] as usize;
        start[c] -= 1;
        order[start[c]] = (node_id32(i), p);
    }
    drop(cell_ids);
    let r2 = radius * radius;
    // Pass 1: both runs a node is tested against are contiguous in `order`
    // (a cell's tail runs on into the next cell of its row; the top row has
    // no row above). Every candidate is written and the cursor only
    // advances on a hit, so the buffer keeps room for one cell's
    // candidates past the cursor: node `k` has `rest_end - k - 1` plus
    // `above`, summed over the cell's `m` nodes. It starts with room for an
    // average degree of 8 and doubles past that, so it is rarely resized.
    let mut pairs = vec![(0u32, 0u32); 4 * n];
    let mut len = 0usize;
    for c in 0..cells {
        let (left, right) = (usize::from(c % side > 0), usize::from(c % side + 1 < side));
        let rest_end = start[c + 1 + right];
        let above = start[(c + side - left).min(cells)]..start[(c + side + 1 + right).min(cells)];
        let m = start[c + 1] - start[c];
        let need = len + m * (rest_end - start[c] + above.len()) - m * (m + 1) / 2;
        if pairs.len() < need {
            pairs.resize(need.max(2 * pairs.len()), (0, 0));
        }
        for k in start[c]..start[c + 1] {
            let (me, (x, y)) = order[k];
            for run in [&order[k + 1..rest_end], &order[above.clone()]] {
                for &(j, (px, py)) in run {
                    let d2 = (x - px) * (x - px) + (y - py) * (y - py);
                    pairs[len] = (me, j);
                    len += usize::from(d2 < r2);
                }
            }
        }
    }
    drop((start, order));
    pairs.truncate(len);
    // Pass 2: degrees into `offsets`, then each pair both ways into its
    // endpoints' runs, unsorted.
    let mut offsets = vec![0usize; n + 1];
    for &(a, b) in &pairs {
        offsets[a as usize + 1] += 1;
        offsets[b as usize + 1] += 1;
    }
    for v in 1..=n {
        offsets[v] += offsets[v - 1];
    }
    let mut fill = offsets[..n].to_vec();
    let mut unsorted = vec![0u32; 2 * len];
    for (a, b) in pairs {
        for (from, to) in [(a, b), (b, a)] {
            unsorted[fill[from as usize]] = to;
            fill[from as usize] += 1;
        }
    }
    // Pass 3: the relation is symmetric, so writing `j` into the slice of
    // each of its neighbors, for `j` in increasing order, fills every slice
    // sorted.
    let mut neighbors = vec![0u32; 2 * len];
    fill.copy_from_slice(&offsets[..n]);
    for j in 0..n {
        for &i in &unsorted[offsets[j]..offsets[j + 1]] {
            neighbors[fill[i as usize]] = node_id32(j);
            fill[i as usize] += 1;
        }
    }
    Graph::from_csr_trusted(offsets, neighbors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn zero_radius_no_edges() {
        let g = random_geometric(50, 0.0, 1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn huge_radius_complete() {
        let g = random_geometric(20, 2.0, 1);
        assert_eq!(g.num_edges(), 20 * 19 / 2);
    }

    fn brute_force(points: &[(f64, f64)], r: f64) -> Graph {
        let mut slow = GraphBuilder::new(points.len());
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                let (x1, y1) = points[i];
                let (x2, y2) = points[j];
                if (x1 - x2).powi(2) + (y1 - y2).powi(2) < r * r {
                    slow.add_edge(i, j).unwrap();
                }
            }
        }
        slow.build()
    }

    #[test]
    fn matches_brute_force() {
        let mut rng = super::super::rng_from_seed(77);
        let points: Vec<(f64, f64)> =
            (0..120).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
        let r = 0.17;
        assert_eq!(geometric_from_points(&points, r), brute_force(&points, r));
    }

    #[test]
    fn tiny_radius_keeps_the_grid_small() {
        // ⌈1/r⌉² cells would be 10^10 (r = 1e-5) or 10^18 (r = 1e-9); the
        // grid is capped at about ⌈√n⌉ cells per side instead.
        let mut points = random_points(100, 1);
        points[7] = points[3];
        points[8] = (points[3].0 + 5e-6, points[3].1);
        for r in [1e-5, 1e-9] {
            let g = geometric_from_points(&points, r);
            assert_eq!(g, brute_force(&points, r));
            assert!(g.has_edge(3, 7));
        }
        assert!(geometric_from_points(&points, 1e-5).has_edge(3, 8));
        assert!(!geometric_from_points(&points, 1e-9).has_edge(3, 8));
    }

    #[test]
    fn expected_degree_ballpark() {
        let g = random_geometric_expected_degree(2000, 10.0, 5);
        let avg = g.average_degree();
        // Boundary effects reduce the average a bit below the target.
        assert!(avg > 5.0 && avg < 12.0, "avg degree {avg}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(random_geometric(100, 0.1, 2), random_geometric(100, 0.1, 2));
    }

    #[test]
    fn explicit_points() {
        let pts = [(0.1, 0.1), (0.15, 0.1), (0.9, 0.9)];
        let g = geometric_from_points(&pts, 0.1);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(1, 2));
    }
}
