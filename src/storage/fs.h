// Crash-safety filesystem primitives.
//
// Every durable mutation in the storage layer (snapshot and journal
// writes, fsyncs, renames, unlinks, directory syncs) goes through these
// helpers so that (a) the fsync/rename discipline lives in one place and
// (b) tests can inject faults and simulate power loss at every syscall
// boundary via storage/fault_injection.h.

#ifndef RTSI_STORAGE_FS_H_
#define RTSI_STORAGE_FS_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/status.h"

namespace rtsi::storage::fs {

bool Exists(const std::string& path);
std::uint64_t FileSize(const std::string& path);  // 0 when missing
std::string ParentDir(const std::string& path);

/// Registers a freshly opened stream with the fault-injection tracker.
/// `truncated` says the open discarded previous content ("wb").
void TrackOpen(const std::string& path, bool truncated);

/// fwrite that honors injected faults (an injected failure writes a
/// partial prefix, modeling a torn write). Returns false on failure.
bool Write(std::FILE* f, const void* data, std::size_t size,
           const std::string& path);

/// fflush + fdatasync: the bytes are durable on return.
Status FlushAndSync(std::FILE* f, const std::string& path);

/// fflush only (no durability guarantee).
Status Flush(std::FILE* f, const std::string& path);

/// Atomic rename. Durable only after SyncParentDir on the target's dir.
Status Rename(const std::string& from, const std::string& to);

Status Remove(const std::string& path);

/// Removes every file in `dir`, then `dir` itself; Ok when `dir` does not
/// exist. Returns the first failure (a non-empty subdirectory fails).
/// Durable only after SyncParentDir on `dir`.
Status RemoveDir(const std::string& dir);

Status Truncate(const std::string& path, std::uint64_t size);

/// fsync of the directory containing `path` — makes prior renames,
/// creations and unlinks in that directory durable.
Status SyncParentDir(const std::string& path);

}  // namespace rtsi::storage::fs

#endif  // RTSI_STORAGE_FS_H_
