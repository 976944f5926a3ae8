//! Atomic file publication: the one tmp → fsync → rename → directory
//! fsync sequence behind every published artifact (result JSON, trie
//! snapshots, blocklists, forecasts).

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

/// Publish `path` atomically: `write` fills the `<file name>.tmp`
/// sibling, which is fsynced, renamed over `path`, and then the
/// directory is fsynced so the rename itself survives a crash. Readers
/// and file watchers see the old file or the new one, never a torn one.
/// Errors name the file the failing step touched.
pub fn publish_atomic(
    path: &Path,
    write: impl FnOnce(&mut File) -> io::Result<()>,
) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let named = |p: &Path| {
        let p = p.display().to_string();
        move |e: io::Error| io::Error::new(e.kind(), format!("{p}: {e}"))
    };
    let mut file = File::create(&tmp).map_err(named(&tmp))?;
    write(&mut file)
        .and_then(|()| file.sync_all())
        .map_err(named(&tmp))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(named(path))?;
    // Best-effort: some filesystems refuse to fsync a directory.
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("unclean-publish-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn publish_atomic_replaces_whole_file() {
        let dir = temp_dir("replace");
        let path = dir.join("forecast.txt");
        publish_atomic(&path, |f| f.write_all(b"first generation\n")).expect("publish");
        publish_atomic(&path, |f| f.write_all(b"second\n")).expect("republish");
        assert_eq!(std::fs::read(&path).expect("readable"), b"second\n");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("forecast.txt")]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_names_the_path_and_keeps_the_old_file() {
        let dir = temp_dir("fail");
        let path = dir.join("blocklist.txt");
        publish_atomic(&path, |f| f.write_all(b"old\n")).expect("publish");
        let err = publish_atomic(&path, |_| Err(io::Error::other("disk full")))
            .expect_err("the write fails");
        let msg = err.to_string();
        assert!(msg.contains("blocklist.txt.tmp"), "{msg}");
        assert!(msg.contains("disk full"), "{msg}");
        assert_eq!(std::fs::read(&path).expect("readable"), b"old\n");
        let missing = dir.join("no-such-dir").join("x.json");
        let err = publish_atomic(&missing, |f| f.write_all(b"{}")).expect_err("no directory");
        assert!(err.to_string().contains("x.json.tmp"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
