//! Store round-trip guarantees: cache hits are byte-identical to fresh
//! pipeline runs across ROP, multi-layer VM, and cross-layer
//! configurations; any corruption or truncation demotes to a miss.

use raindrop::pipeline::ObfConfig;
use raindrop::RopConfig;
use raindrop_machine::Image;
use raindrop_obfvm::VmConfig;
use raindrop_server::{ArtifactKey, ArtifactStore, StoreConfig, STORE_VERSION};
use raindrop_synth::minic::{BinOp, Expr, Function, Program, Stmt};
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, unique store directory per test invocation.
fn fresh_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "raindrop-store-test-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// f(x) = (x ^ 0x5A) * 3 + 7.
fn sample_program() -> Program {
    Program::new().with_function(Function {
        name: "f".into(),
        params: 1,
        locals: 1,
        body: vec![
            Stmt::Assign(0, Expr::bin(BinOp::Xor, Expr::Arg(0), Expr::c(0x5A))),
            Stmt::Return(Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, Expr::Var(0), Expr::c(3)),
                Expr::c(7),
            )),
        ],
    })
}

/// The three configuration families the store must round-trip: plain ROP,
/// a 2-layer VM stack, and a cross-layer composition.
fn config_matrix() -> Vec<(&'static str, ObfConfig)> {
    vec![
        ("rop", ObfConfig::new().rop(RopConfig::ropk(0.25))),
        ("2vm", ObfConfig::new().vm(VmConfig::plain(2))),
        ("rop-over-vm", ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::full())),
    ]
}

fn fresh_run(config: &ObfConfig, seed: u64) -> Image {
    config.pipeline(seed).run_program(&sample_program(), &["f"]).unwrap().into_strict().unwrap().0
}

fn key_for(config: &ObfConfig, seed: u64) -> ArtifactKey {
    ArtifactKey {
        source_hash: raindrop_server::source_hash(&sample_program(), &["f".to_string()]),
        config_hash: config.config_hash(),
        seed,
    }
}

#[test]
fn cache_hits_are_byte_identical_across_configs_and_reopens() {
    let dir = fresh_dir("roundtrip");
    let seed = 11;
    let mut fresh: Vec<(ArtifactKey, Image)> = Vec::new();
    {
        let mut store = ArtifactStore::open(&dir, StoreConfig::default()).unwrap();
        for (label, config) in config_matrix() {
            let image = fresh_run(&config, seed);
            // Determinism sanity: a second fresh run is already identical.
            assert_eq!(image, fresh_run(&config, seed), "{label}: pipeline not reproducible");
            let key = key_for(&config, seed);
            store.put(&key, &image).unwrap();
            assert_eq!(store.get(&key).unwrap().as_ref(), Some(&image), "{label}: same-session");
            fresh.push((key, image));
        }
    }
    // A brand-new store handle over the same directory must serve every
    // artifact byte-identical to the fresh pipeline output.
    let mut store = ArtifactStore::open(&dir, StoreConfig::default()).unwrap();
    for (key, image) in &fresh {
        assert_eq!(store.get(key).unwrap().as_ref(), Some(image), "reopen must round-trip {key}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_blob_bytes_demote_to_a_miss() {
    let dir = fresh_dir("corrupt");
    let (_, config) = config_matrix().remove(0);
    let image = fresh_run(&config, 5);
    let key = key_for(&config, 5);
    {
        let mut store = ArtifactStore::open(&dir, StoreConfig::default()).unwrap();
        store.put(&key, &image).unwrap();
    }
    // Flip one byte in the middle of the blob region.
    let blobs_path = dir.join("blobs.rds");
    let len = std::fs::metadata(&blobs_path).unwrap().len();
    let mut f = std::fs::OpenOptions::new().write(true).open(&blobs_path).unwrap();
    f.seek(SeekFrom::Start(len / 2)).unwrap();
    f.write_all(&[0xFF]).unwrap();
    drop(f);
    let mut store = ArtifactStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(store.get(&key).unwrap(), None, "damaged blob must be a miss, never an artifact");
    // The store recovers by recomputing: a fresh put serves again.
    store.put(&key, &image).unwrap();
    assert_eq!(store.get(&key).unwrap(), Some(image));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_store_files_demote_to_a_miss() {
    for victim in ["index.rds", "blobs.rds"] {
        let dir = fresh_dir("truncate");
        let (_, config) = config_matrix().remove(0);
        let image = fresh_run(&config, 5);
        let key = key_for(&config, 5);
        {
            let mut store = ArtifactStore::open(&dir, StoreConfig::default()).unwrap();
            store.put(&key, &image).unwrap();
        }
        let path = dir.join(victim);
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 7).unwrap();
        let mut store = ArtifactStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.get(&key).unwrap(), None, "truncated {victim} must be a miss");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn byte_budget_evicts_fifo_and_compaction_reclaims_space() {
    let dir = fresh_dir("evict");
    let config = ObfConfig::new().rop(RopConfig::ropk(0.25));
    let one_blob = raindrop_server::encode_image(&fresh_run(&config, 0)).len() as u64;
    // Room for roughly two artifacts.
    let budget = one_blob * 2 + one_blob / 2;
    let mut store =
        ArtifactStore::open(&dir, StoreConfig { max_blob_bytes: Some(budget) }).unwrap();
    let keys: Vec<ArtifactKey> = (0..4u64)
        .map(|seed| {
            let key = key_for(&config, seed);
            store.put(&key, &fresh_run(&config, seed)).unwrap();
            key
        })
        .collect();
    let stats = store.stats();
    assert!(stats.evictions >= 2, "oldest artifacts evicted: {stats:?}");
    assert!(stats.live_bytes <= budget, "budget respected: {stats:?}");
    assert!(!store.contains(&keys[0]), "FIFO: the first insert goes first");
    assert!(store.contains(&keys[3]), "the newest artifact survives");
    store.compact().unwrap();
    assert_eq!(store.stats().dead_bytes, 0);
    let on_disk = std::fs::metadata(dir.join("blobs.rds")).unwrap().len();
    assert!(on_disk <= 8 + budget, "compaction reclaimed dead blob bytes ({on_disk} bytes left)");
    // Survivors still round-trip after compaction.
    for key in &keys[2..] {
        assert!(store.get(key).unwrap().is_some());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stores_stamped_at_another_version_open_empty() {
    let (_, config) = config_matrix().remove(0);
    let image = fresh_run(&config, 9);
    let key = key_for(&config, 9);
    for stamp in (1..STORE_VERSION).chain([STORE_VERSION + 1]) {
        let dir = fresh_dir("version");
        {
            let mut store = ArtifactStore::open(&dir, StoreConfig::default()).unwrap();
            store.put(&key, &image).unwrap();
        }
        for name in ["index.rds", "blobs.rds"] {
            let mut f = std::fs::OpenOptions::new().write(true).open(dir.join(name)).unwrap();
            f.seek(SeekFrom::Start(4)).unwrap();
            f.write_all(&stamp.to_le_bytes()).unwrap();
        }
        // The store is a cache: an earlier or future store restarts empty
        // and serves fresh puts at the current version.
        let mut store = ArtifactStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.get(&key).unwrap(), None, "version {stamp} must open empty");
        store.put(&key, &image).unwrap();
        assert_eq!(store.get(&key).unwrap().as_ref(), Some(&image), "version {stamp}: fresh put");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
