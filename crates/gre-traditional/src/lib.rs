//! # gre-traditional
//!
//! From-scratch Rust implementations of the traditional in-memory indexes
//! the paper compares against (§3.1):
//!
//! * [`btree`] — STX-style B+-tree with leaf side-links.
//! * [`art`] — Adaptive Radix Tree with the four adaptive node types.
//! * [`hot`] — simplified height-optimised trie (compact nibble trie).
//! * [`masstree`] — simplified Masstree (single-layer trie of B+-trees).
//! * [`wormhole`] — simplified hash-accelerated ordered index.
//! * [`concurrent`] — the concurrent derivatives used by the multi-threaded
//!   experiments (B+tree/p64, ART/p64, HOT/p64, Masstree, Wormhole).

pub mod art;
pub mod btree;
pub mod concurrent;
pub mod hot;
pub mod masstree;
pub mod wormhole;

pub use art::Art;
pub use btree::BPlusTree;
pub use concurrent::{
    art_olc, btree_olc, hot_rowex, masstree_concurrent, wormhole_concurrent, BPlusTreeOlc,
};
pub use hot::Hot;
pub use masstree::Masstree;
pub use wormhole::Wormhole;
