//! Loading a file at a checkpoint path that is too large to be a checkpoint: it is
//! refused before it is read, so a corrupt or foreign multi-gigabyte file costs no
//! memory.

use dssp_ps::{Checkpoint, CheckpointError, MAX_CHECKPOINT_LEN};
use dssp_testalloc::{thread_bytes_during, CountingAlloc};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn an_oversized_file_is_refused_before_it_is_read() {
    let dir = std::env::temp_dir().join(format!("dssp-ckpt-oversized-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("server.ckpt");
    // Sparse: one byte past the ceiling in length, next to nothing on disk.
    let file = std::fs::File::create(&path).unwrap();
    file.set_len(MAX_CHECKPOINT_LEN as u64 + 1).unwrap();
    drop(file);
    let mut loaded = Vec::with_capacity(2);
    let bytes = thread_bytes_during(|| {
        loaded.push(Checkpoint::load(&path));
        loaded.push(Checkpoint::load_for_job(&path, 0));
    });
    std::fs::remove_dir_all(&dir).ok();
    for result in loaded {
        assert!(
            matches!(result, Err(CheckpointError::BadLength)),
            "{result:?}"
        );
    }
    assert!(
        bytes < 1 << 20,
        "loading asked the allocator for {bytes} bytes"
    );
}
