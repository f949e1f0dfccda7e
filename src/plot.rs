//! Terminal scatter plots for the Figure 3 cluster diagrams.
//!
//! The paper presents its classification output as 2-D cluster diagrams
//! in principal-component space. This module renders the same diagrams as
//! ASCII scatter plots so the `classify_workloads` example can draw them
//! (`--plot`) over Table 3's runs without any plotting dependency; each
//! application class draws with its own glyph.

use appclass_core::class::AppClass;
use appclass_linalg::Matrix;

/// Glyph used for each class in a scatter plot.
pub fn glyph(class: AppClass) -> char {
    match class {
        AppClass::Idle => '.',
        AppClass::Io => 'o',
        AppClass::Cpu => '+',
        AppClass::Net => 'x',
        AppClass::Mem => '#',
    }
}

/// Renders labelled 2-D points as an ASCII scatter plot.
///
/// `projected` must have at least two columns (PC1, PC2); extra columns
/// are ignored. Points beyond the axis ranges are clamped onto the frame
/// border. Returns the multi-line plot, bottom row = minimum PC2.
///
/// # Examples
///
/// ```
/// use appclass::plot::scatter;
/// use appclass_core::class::AppClass;
/// use appclass_linalg::Matrix;
///
/// let points = Matrix::from_rows(&[vec![-1.0, -1.0], vec![1.0, 1.0]]).unwrap();
/// let labels = [AppClass::Idle, AppClass::Cpu];
/// let plot = scatter(&points, &labels, 20, 10);
/// assert!(plot.contains('+'));
/// assert!(plot.contains('.'));
/// ```
pub fn scatter(projected: &Matrix, labels: &[AppClass], width: usize, height: usize) -> String {
    let width = width.max(8);
    let height = height.max(4);
    assert!(projected.cols() >= 2, "scatter needs at least two components");
    assert_eq!(projected.rows(), labels.len(), "one label per point");

    if projected.rows() == 0 {
        return String::from("(no points)\n");
    }

    // Axis ranges with a small margin.
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for row in projected.iter_rows() {
        x_min = x_min.min(row[0]);
        x_max = x_max.max(row[0]);
        y_min = y_min.min(row[1]);
        y_max = y_max.max(row[1]);
    }
    let pad = |lo: &mut f64, hi: &mut f64| {
        let span = (*hi - *lo).max(1e-9);
        *lo -= span * 0.05;
        *hi += span * 0.05;
    };
    pad(&mut x_min, &mut x_max);
    pad(&mut y_min, &mut y_max);

    let mut grid = vec![vec![' '; width]; height];
    for (row, &label) in projected.iter_rows().zip(labels) {
        let cx = ((row[0] - x_min) / (x_max - x_min) * (width - 1) as f64).round() as usize;
        let cy = ((row[1] - y_min) / (y_max - y_min) * (height - 1) as f64).round() as usize;
        let cx = cx.min(width - 1);
        let cy = cy.min(height - 1);
        // y axis points up: last grid row is y_min.
        grid[height - 1 - cy][cx] = glyph(label);
    }

    let mut out = String::new();
    out.push_str(&format!("PC2 {y_max:>8.2}\n"));
    for line in &grid {
        out.push_str("    |");
        out.extend(line.iter());
        out.push('\n');
    }
    out.push_str(&format!("    {y_min:>8.2}\n"));
    out.push_str(&format!(
        "     PC1: {:.2} .. {:.2}   glyphs: Idle '.'  IO 'o'  CPU '+'  NET 'x'  MEM '#'\n",
        x_min, x_max
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(rows: &[Vec<f64>]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn glyphs_unique() {
        let mut set = std::collections::HashSet::new();
        for c in AppClass::ALL {
            set.insert(glyph(c));
        }
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn corners_land_on_frame() {
        let m = points(&[vec![0.0, 0.0], vec![10.0, 10.0]]);
        let plot = scatter(&m, &[AppClass::Idle, AppClass::Net], 30, 10);
        let lines: Vec<&str> = plot.lines().collect();
        // Top plotted row holds the max-PC2 point, bottom the min.
        assert!(lines[1].contains('x'), "top row: {}", lines[1]);
        assert!(lines[10].contains('.'), "bottom row: {}", lines[10]);
    }

    #[test]
    fn degenerate_single_point() {
        let m = points(&[vec![1.0, 1.0]]);
        let plot = scatter(&m, &[AppClass::Cpu], 10, 5);
        assert!(plot.contains('+'));
    }

    #[test]
    #[should_panic(expected = "one label per point")]
    fn label_count_must_match() {
        let m = points(&[vec![0.0, 0.0]]);
        let _ = scatter(&m, &[], 10, 5);
    }

    #[test]
    fn separated_clusters_do_not_collide() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            rows.push(vec![-5.0 + 0.01 * i as f64, 0.0]);
            labels.push(AppClass::Io);
            rows.push(vec![5.0 + 0.01 * i as f64, 0.0]);
            labels.push(AppClass::Mem);
        }
        let plot = scatter(&points(&rows), &labels, 40, 8);
        // 'o' cluster strictly left of '#' cluster on every line.
        for line in plot.lines() {
            if let (Some(o), Some(h)) = (line.rfind('o'), line.find('#')) {
                assert!(o < h, "clusters overlap in: {line}");
            }
        }
    }
}
