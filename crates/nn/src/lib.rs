//! # sdflmq-nn — minimal dense neural-network library
//!
//! The ML substrate for SDFLMQ (the paper uses PyTorch; this repo builds the
//! needed subset from scratch): row-major `f32` tensors with multi-threaded
//! matmul, a flat-parameter [`mlp::Mlp`], softmax cross-entropy, SGD/Adam,
//! and a mini-batch training loop.
//!
//! The *flat parameter vector* design is the FL-specific choice: a model's
//! entire state is one `&[f32]`, so shipping it over MQTT, aggregating it
//! with FedAvg, or swapping it for a global update are all slice operations
//! (see [`params`]).
//!
//! ```
//! use sdflmq_nn::{Mlp, MlpSpec, Sgd, TrainConfig, Matrix};
//! use sdflmq_nn::train::{train, evaluate};
//!
//! // XOR-ish toy problem.
//! let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
//! let y = vec![0usize, 1, 1, 0];
//! let mut model = Mlp::new(MlpSpec { input: 2, hidden: vec![8], output: 2 }, 42);
//! let mut opt = Sgd::new(0.5);
//! train(&mut model, &mut opt, &x, &y,
//!       &TrainConfig { batch_size: 4, epochs: 500, shuffle_seed: 1 });
//! assert!(evaluate(&model, &x, &y) > 0.9);
//! ```

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod codec;
pub mod init;
pub mod loss;
pub mod metrics;
pub mod mlp;
pub mod optim;
pub mod parallel;
pub mod params;
mod simd;
pub mod tensor;
pub mod train;

pub use codec::{CodecError, UpdateCodec};
pub use init::Init;
pub use loss::{mse, softmax_cross_entropy};
pub use metrics::{accuracy, argmax, confusion_matrix};
pub use mlp::{ForwardCache, Mlp, MlpSpec};
pub use optim::{Adam, Optimizer, Sgd};
pub use params::{deserialize as deserialize_params, serialize as serialize_params, ParamError};
pub use tensor::Matrix;
pub use train::{evaluate, train, train_batch, TrainConfig, TrainReport};
