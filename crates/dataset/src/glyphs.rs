//! Digit glyph skeletons.
//!
//! Each digit class 0-9 is described as a set of stroke segments in the
//! unit square, seven-segment style with a few diagonals for more natural
//! shapes. The renderer ([`mod@crate::render`]) applies random affine jitter and
//! rasterizes them to 28×28 images — the repo's stand-in for MNIST (the crate
//! docs say why the substitution preserves the experiments).

/// A line segment in unit coordinates (`0.0..=1.0` on both axes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point (x, y).
    pub from: (f32, f32),
    /// End point (x, y).
    pub to: (f32, f32),
}

impl Segment {
    /// Constructs a segment.
    pub const fn new(x1: f32, y1: f32, x2: f32, y2: f32) -> Segment {
        Segment {
            from: (x1, y1),
            to: (x2, y2),
        }
    }

    /// Euclidean distance from `p` to this segment.
    pub fn distance_to(&self, p: (f32, f32)) -> f32 {
        let (px, py) = p;
        let (x1, y1) = self.from;
        let (x2, y2) = self.to;
        let dx = x2 - x1;
        let dy = y2 - y1;
        let len_sq = dx * dx + dy * dy;
        if len_sq <= f32::EPSILON {
            let ex = px - x1;
            let ey = py - y1;
            return (ex * ex + ey * ey).sqrt();
        }
        let t = (((px - x1) * dx + (py - y1) * dy) / len_sq).clamp(0.0, 1.0);
        let cx = x1 + t * dx;
        let cy = y1 + t * dy;
        let ex = px - cx;
        let ey = py - cy;
        (ex * ex + ey * ey).sqrt()
    }
}

// Seven-segment corner coordinates, inset from the unit square.
const L: f32 = 0.28; // left x
const R: f32 = 0.72; // right x
const T: f32 = 0.12; // top y
const M: f32 = 0.50; // middle y
const B: f32 = 0.88; // bottom y

const SEG_A: Segment = Segment::new(L, T, R, T); // top bar
const SEG_B: Segment = Segment::new(R, T, R, M); // top-right
const SEG_C: Segment = Segment::new(R, M, R, B); // bottom-right
const SEG_D: Segment = Segment::new(L, B, R, B); // bottom bar
const SEG_E: Segment = Segment::new(L, M, L, B); // bottom-left
const SEG_F: Segment = Segment::new(L, T, L, M); // top-left
const SEG_G: Segment = Segment::new(L, M, R, M); // middle bar

/// Returns the stroke skeleton of digit `d` (`0..=9`).
///
/// # Panics
///
/// Panics if `d > 9`.
pub fn digit_segments(d: usize) -> &'static [Segment] {
    const ZERO: &[Segment] = &[SEG_A, SEG_B, SEG_C, SEG_D, SEG_E, SEG_F];
    // A "1" with a serif foot and a lead-in stroke, placed mid-right.
    const ONE: &[Segment] = &[
        Segment::new(0.42, 0.22, 0.56, T),
        Segment::new(0.56, T, 0.56, B),
        Segment::new(0.42, B, 0.70, B),
    ];
    // "2" uses a diagonal descender instead of E.
    const TWO: &[Segment] = &[SEG_A, SEG_B, Segment::new(R, M, L, B), SEG_D];
    const THREE: &[Segment] = &[SEG_A, SEG_B, SEG_G, SEG_C, SEG_D];
    // "4": diagonal from top-left to middle, then across and down.
    const FOUR: &[Segment] = &[Segment::new(L, T, L, M), SEG_G, Segment::new(R, T, R, B)];
    const FIVE: &[Segment] = &[SEG_A, SEG_F, SEG_G, SEG_C, SEG_D];
    const SIX: &[Segment] = &[SEG_A, SEG_F, SEG_E, SEG_D, SEG_C, SEG_G];
    // "7" with a diagonal leg.
    const SEVEN: &[Segment] = &[SEG_A, Segment::new(R, T, 0.40, B)];
    const EIGHT: &[Segment] = &[SEG_A, SEG_B, SEG_C, SEG_D, SEG_E, SEG_F, SEG_G];
    const NINE: &[Segment] = &[SEG_A, SEG_B, SEG_C, SEG_D, SEG_F, SEG_G];

    match d {
        0 => ZERO,
        1 => ONE,
        2 => TWO,
        3 => THREE,
        4 => FOUR,
        5 => FIVE,
        6 => SIX,
        7 => SEVEN,
        8 => EIGHT,
        9 => NINE,
        _ => panic!("digit out of range: {d}"),
    }
}

/// Number of digit classes.
pub const NUM_CLASSES: usize = 10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_digits_have_segments_in_unit_square() {
        for d in 0..NUM_CLASSES {
            let segs = digit_segments(d);
            assert!(!segs.is_empty(), "digit {d}");
            for s in segs {
                for (x, y) in [s.from, s.to] {
                    assert!((0.0..=1.0).contains(&x), "digit {d} x={x}");
                    assert!((0.0..=1.0).contains(&y), "digit {d} y={y}");
                }
            }
        }
    }

    #[test]
    fn digits_are_pairwise_distinct() {
        for a in 0..NUM_CLASSES {
            for b in (a + 1)..NUM_CLASSES {
                assert_ne!(
                    digit_segments(a),
                    digit_segments(b),
                    "digits {a} and {b} share a skeleton"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "digit out of range")]
    fn out_of_range_panics() {
        digit_segments(10);
    }

    #[test]
    fn distance_to_segment() {
        let s = Segment::new(0.0, 0.0, 1.0, 0.0);
        assert!((s.distance_to((0.5, 0.5)) - 0.5).abs() < 1e-6);
        assert!(
            (s.distance_to((2.0, 0.0)) - 1.0).abs() < 1e-6,
            "clamps to endpoint"
        );
        assert!(s.distance_to((0.3, 0.0)) < 1e-6, "on the segment");
        // Degenerate segment behaves like a point.
        let p = Segment::new(0.5, 0.5, 0.5, 0.5);
        assert!((p.distance_to((0.5, 1.0)) - 0.5).abs() < 1e-6);
    }
}
