//! # raindrop-server
//!
//! Protection-as-a-service: a long-running obfuscation server that feeds
//! [`ProtectRequest`]s through the shared `raindrop-sched` scheduler and
//! persists results in a content-addressed, versioned [`ArtifactStore`].
//!
//! The request lifecycle:
//!
//! ```text
//! ProtectRequest { program, targets, config, seed }
//!        │ key = (source_hash, config_hash, seed)
//!        ▼
//!   Scheduler (N workers, each holding a warm PipelineWarm)
//!        │
//!        ├─ store.get(key) hit ──► Protected { cache_hit: true }   (no pipeline run)
//!        │
//!        └─ miss ─► config.pipeline(seed).run_program_with(..)
//!                      │ store.put(key, image)
//!                      ▼
//!                 Protected { cache_hit: false }
//! ```
//!
//! Cache hits are byte-identical to fresh pipeline runs: warm worker state
//! is scratch-only, the [`recfile`] encoding is canonical, and every blob is
//! checksummed — a damaged store entry demotes to a miss and is recomputed,
//! never served wrong. See [`store`] for the on-disk layout and version
//! check, [`recfile`] for the one encoding of durable bytes, and [`codec`]
//! for how an image becomes a blob.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod recfile;
pub mod server;
pub mod store;

pub mod codec {
    //! The store's blob encoding: an [`Image`] as its canonical
    //! [`recfile`] payload, read back with
    //! `recfile::decode_payload::<Image>`.

    use crate::recfile;
    use raindrop_machine::Image;

    /// Encodes an image as a store blob.
    pub fn encode_image(image: &Image) -> Vec<u8> {
        recfile::encode_payload(image)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::recfile::decode_payload;
        use raindrop_machine::FuncSym;
        use std::collections::BTreeMap;

        fn sample_image() -> Image {
            let mut symbols = BTreeMap::new();
            symbols.insert("f".to_string(), 0x1000);
            symbols.insert("__rop_ss".to_string(), 0x4000);
            Image {
                text_base: 0x1000,
                text: vec![0x90; 37],
                data_base: 0x4000,
                data: (0..=255u8).collect(),
                symbols,
                functions: vec![FuncSym { name: "f".into(), addr: 0x1000, size: 37 }],
            }
        }

        #[test]
        fn round_trip_is_identity() {
            let img = sample_image();
            let blob = encode_image(&img);
            assert_eq!(decode_payload::<Image>(&blob), Some(img));
        }

        #[test]
        fn equal_images_encode_identically() {
            let a = encode_image(&sample_image());
            let b = encode_image(&sample_image());
            assert_eq!(a, b);
        }

        #[test]
        fn truncation_anywhere_is_detected() {
            let blob = encode_image(&sample_image());
            for cut in [0, 3, 4, 7, 8, blob.len() / 2, blob.len() - 1] {
                assert_eq!(
                    decode_payload::<Image>(&blob[..cut]),
                    None,
                    "cut at {cut} must not decode"
                );
            }
        }

        #[test]
        fn trailing_bytes_are_rejected() {
            let mut blob = encode_image(&sample_image());
            blob.push(0);
            assert_eq!(decode_payload::<Image>(&blob), None);
        }
    }
}

pub use codec::encode_image;
pub use server::{
    source_hash, ProtectError, ProtectRequest, ProtectWorker, Protected, Server, ServerStats,
};
pub use store::{ArtifactKey, ArtifactStore, StoreConfig, StoreError, StoreStats, STORE_VERSION};
