//! # sdflmq-dataset — synthetic digit data and federated partitioning
//!
//! The paper evaluates on MNIST; this crate is the substitution:
//! procedurally rendered 28×28 digit glyphs with affine
//! jitter and pixel noise, generated deterministically from `(seed, split,
//! index)`. The task keeps the properties the experiments rely on — ten
//! balanced classes, learnable by a small MLP to ≈90% accuracy, monotone
//! improvement with more data — while requiring no downloads.
//!
//! Partitioners ([`partition`]) produce the federated splits: IID (the
//! paper's setting), label-sorted shards, and Dirichlet skew.
//!
//! ```
//! use sdflmq_dataset::{SynthDigits, Split, partition};
//!
//! let gen = SynthDigits::new(42);
//! let train = gen.generate(Split::Train, 600);
//! let parts = partition::iid(train.len(), 5, 100, 7);
//! assert_eq!(parts.len(), 5);
//! let client0 = train.subset(&parts[0]);
//! assert_eq!(client0.len(), 100);
//! ```

#![warn(missing_docs)]

pub mod glyphs;
pub mod partition;
pub mod render;
pub mod synth;

pub use glyphs::{digit_segments, Segment, NUM_CLASSES};
pub use render::{render, Jitter, IMG_PIXELS, IMG_SIDE};
pub use synth::{Dataset, Split, SynthDigits};
