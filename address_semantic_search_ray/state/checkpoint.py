"""Stage-boundary checkpoints with lineage + metrics (north rule: resumable).

Each pipeline stage materializes to a Parquet directory with a ``_MANIFEST``
JSON recording: input fingerprint, wall time, row count, and per-partition
lineage (file -> rows). On re-run, a stage whose manifest matches its input
fingerprint is skipped and its output is read back — restart-mid-run skips
completed partitions. Writes are atomic: a temp dir is renamed into place
only after the manifest is written.

This is the analog of the reference's per-district ``.vt`` cache files
(``SimilarityComputer.java:654-690``) — rebuildable per key — generalized to
every stage boundary.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import os
import shutil
import time


# the package's own source tree: every module in it salts every cache key
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def code_salt() -> str:
    """Code-version salt for cache and checkpoint keys: a digest of every
    ``.py`` file of the package (path and content). Any edit to the package
    changes it, so an entry built by older code misses instead of being
    served stale, and no hand-kept module list can miss a module that
    shapes the cached payload. Read once per process and root."""
    return _tree_digest(PACKAGE_ROOT)


@functools.lru_cache(maxsize=None)
def _tree_digest(root: str) -> str:
    h = hashlib.blake2b(digest_size=10)
    for path in sorted(glob.glob(os.path.join(root, "**", "*.py"),
                                 recursive=True)):
        with open(path, "rb") as f:
            src = f.read()
        h.update(f"{os.path.relpath(path, root)}\0{len(src)}\0".encode())
        h.update(src)
    return h.hexdigest()


def fingerprint_paths(*paths: str, extra: dict | None = None) -> str:
    """Cheap input fingerprint: (path, size, mtime_ns) of every file + params."""
    items = []
    for p in paths:
        if os.path.isdir(p):
            files = sorted(glob.glob(os.path.join(p, "**", "*"), recursive=True))
        else:
            files = [p]
        for f in files:
            if os.path.isfile(f) and not os.path.basename(f).startswith("_"):
                st = os.stat(f)
                items.append((f, st.st_size, st.st_mtime_ns))
    blob = json.dumps({"files": items, "extra": extra or {}}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _partition_lineage(out_dir: str) -> list[dict]:
    import pyarrow.parquet as pq

    lineage = []
    for f in sorted(glob.glob(os.path.join(out_dir, "**", "*.parquet"), recursive=True)):
        rel = os.path.relpath(f, out_dir)
        try:
            rows = pq.read_metadata(f).num_rows
        except Exception:
            rows = -1
        lineage.append({"partition": os.path.dirname(rel) or ".", "file": rel, "rows": rows})
    return lineage


class StageRunner:
    """Runs named stages with skip-if-complete semantics and a metrics log."""

    def __init__(self, work_dir: str, resume: bool = True):
        self.work_dir = work_dir
        self.resume = resume
        self.metrics: list[dict] = []
        os.makedirs(work_dir, exist_ok=True)

    def _manifest_path(self, name: str) -> str:
        return os.path.join(self.work_dir, name, "_MANIFEST")

    def out_dir(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def is_complete(self, name: str, fp: str) -> bool:
        mp = self._manifest_path(name)
        if not os.path.exists(mp):
            return False
        try:
            manifest = json.load(open(mp))
        except Exception:
            return False
        if manifest.get("fingerprint") != fp:
            return False
        # output integrity: every file recorded in the lineage must still exist
        # (a deleted/partial partition invalidates the stage, not just its
        # downstream consumers)
        out_dir = self.out_dir(name)
        for part in manifest.get("partitions", []):
            if not os.path.exists(os.path.join(out_dir, part["file"])):
                return False
        return True

    def run(self, name: str, fp: str, write_fn) -> str:
        """``write_fn(tmp_dir)`` must write the stage output into ``tmp_dir``.
        Returns the final output dir. Skips when complete (resume)."""
        final = self.out_dir(name)
        if self.resume and self.is_complete(name, fp):
            self.metrics.append({"stage": name, "skipped": True, "fingerprint": fp})
            return final
        tmp = final + ".tmp"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        if os.path.exists(final):
            shutil.rmtree(final)
        os.makedirs(tmp, exist_ok=True)
        t0 = time.time()
        write_fn(tmp)
        wall = time.time() - t0
        lineage = _partition_lineage(tmp)
        manifest = {
            "stage": name,
            "fingerprint": fp,
            "wall_sec": round(wall, 3),
            "rows": sum(p["rows"] for p in lineage if p["rows"] >= 0),
            "partitions": lineage,
        }
        with open(os.path.join(tmp, "_MANIFEST"), "w") as f:
            json.dump(manifest, f)
        os.rename(tmp, final)
        self.metrics.append({"stage": name, "skipped": False, "fingerprint": fp,
                             "wall_sec": manifest["wall_sec"], "rows": manifest["rows"],
                             "n_partitions": len({p["partition"] for p in lineage})})
        return final

    def flush_metrics(self):
        path = os.path.join(self.work_dir, "metrics.jsonl")
        with open(path, "a") as f:
            for m in self.metrics:
                f.write(json.dumps(m) + "\n")
        return path
