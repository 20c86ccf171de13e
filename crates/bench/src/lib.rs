//! The paper-figure binaries live in `src/bin/`; this crate has no library code.
