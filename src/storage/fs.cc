#include "storage/fs.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <vector>

#include "storage/fault_injection.h"

namespace rtsi::storage::fs {

bool Exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::uint64_t FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

std::string ParentDir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

void TrackOpen(const std::string& path, bool truncated) {
  auto& fi = FaultInjection::Instance();
  if (!fi.enabled()) return;
  fi.OnOpen(path, truncated ? 0 : FileSize(path), truncated);
}

bool Write(std::FILE* f, const void* data, std::size_t size,
           const std::string& path) {
  if (size == 0) return true;
  auto& fi = FaultInjection::Instance();
  if (fi.enabled()) {
    if (fi.ShouldFail(FaultOp::kWrite, path)) {
      // Torn write: a prefix reaches the file, the rest never does.
      const std::size_t partial = size / 2;
      if (partial > 0 && std::fwrite(data, 1, partial, f) == partial) {
        fi.OnWrite(path, partial);
      }
      return false;
    }
    if (std::fwrite(data, 1, size, f) != size) return false;
    fi.OnWrite(path, size);
    return true;
  }
  return std::fwrite(data, 1, size, f) == size;
}

Status FlushAndSync(std::FILE* f, const std::string& path) {
  auto& fi = FaultInjection::Instance();
  if (fi.enabled() && fi.ShouldFail(FaultOp::kSync, path)) {
    return Status::Internal("injected sync failure: " + path);
  }
  if (std::fflush(f) != 0) {
    return Status::Internal("fflush failed: " + path);
  }
  if (::fdatasync(::fileno(f)) != 0) {
    return Status::Internal("fdatasync failed: " + path);
  }
  if (fi.enabled()) fi.OnSync(path);
  return Status::Ok();
}

Status Flush(std::FILE* f, const std::string& path) {
  // No fault point: an fflush carries no durability promise, so tests
  // model its failure via the kWrite point on the preceding append.
  if (std::fflush(f) != 0) {
    return Status::Internal("fflush failed: " + path);
  }
  return Status::Ok();
}

Status Rename(const std::string& from, const std::string& to) {
  auto& fi = FaultInjection::Instance();
  const bool enabled = fi.enabled();
  if (enabled && fi.ShouldFail(FaultOp::kRename, from)) {
    return Status::Internal("injected rename failure: " + from);
  }
  if (enabled) fi.PrepareRename(from, to);
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return Status::Internal("rename failed: " + from + " -> " + to);
  }
  if (enabled) fi.CommitRename(from, to);
  return Status::Ok();
}

Status Remove(const std::string& path) {
  auto& fi = FaultInjection::Instance();
  const bool enabled = fi.enabled();
  if (enabled && fi.ShouldFail(FaultOp::kUnlink, path)) {
    return Status::Internal("injected unlink failure: " + path);
  }
  if (enabled) fi.PrepareUnlink(path);
  if (std::remove(path.c_str()) != 0) {
    return Status::Internal("remove failed: " + path);
  }
  if (enabled) fi.CommitUnlink(path);
  return Status::Ok();
}

Status RemoveDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return Status::Ok();
    return Status::Internal("cannot open dir: " + dir);
  }
  std::vector<std::string> files;
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") files.push_back(dir + "/" + name);
  }
  ::closedir(d);
  for (const std::string& file : files) {
    const Status removed = Remove(file);
    if (!removed.ok()) return removed;
  }
  if (::rmdir(dir.c_str()) != 0 && errno != ENOENT) {
    return Status::Internal("rmdir failed: " + dir);
  }
  return Status::Ok();
}

Status Truncate(const std::string& path, std::uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return Status::Internal("truncate failed: " + path);
  }
  return Status::Ok();
}

Status SyncParentDir(const std::string& path) {
  const std::string dir = ParentDir(path);
  auto& fi = FaultInjection::Instance();
  if (fi.enabled() && fi.ShouldFail(FaultOp::kDirSync, dir)) {
    return Status::Internal("injected dir sync failure: " + dir);
  }
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Internal("cannot open dir for fsync: " + dir);
  }
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) return Status::Internal("dir fsync failed: " + dir);
  if (fi.enabled()) fi.OnDirSync(dir);
  return Status::Ok();
}

}  // namespace rtsi::storage::fs
