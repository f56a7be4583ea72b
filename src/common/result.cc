#include "common/result.h"

#include <cerrno>

namespace hvac {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "OK";
    case ErrorCode::kNotFound: return "NOT_FOUND";
    case ErrorCode::kPermission: return "PERMISSION";
    case ErrorCode::kIoError: return "IO_ERROR";
    case ErrorCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case ErrorCode::kUnavailable: return "UNAVAILABLE";
    case ErrorCode::kTimeout: return "TIMEOUT";
    case ErrorCode::kExists: return "EXISTS";
    case ErrorCode::kCapacity: return "CAPACITY";
    case ErrorCode::kProtocol: return "PROTOCOL";
    case ErrorCode::kBadFd: return "BAD_FD";
    case ErrorCode::kCancelled: return "CANCELLED";
    case ErrorCode::kUnimplemented: return "UNIMPLEMENTED";
    case ErrorCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

int error_code_to_errno(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return 0;
    case ErrorCode::kNotFound: return ENOENT;
    case ErrorCode::kPermission: return EACCES;
    case ErrorCode::kIoError: return EIO;
    case ErrorCode::kInvalidArgument: return EINVAL;
    case ErrorCode::kUnavailable: return ECONNREFUSED;
    case ErrorCode::kTimeout: return ETIMEDOUT;
    case ErrorCode::kExists: return EEXIST;
    case ErrorCode::kCapacity: return ENOSPC;
    case ErrorCode::kProtocol: return EPROTO;
    case ErrorCode::kBadFd: return EBADF;
    case ErrorCode::kCancelled: return ECANCELED;
    case ErrorCode::kUnimplemented: return ENOSYS;
    case ErrorCode::kInternal: return EIO;
  }
  return EIO;
}

ErrorCode errno_to_error_code(int err) {
  switch (err) {
    case 0: return ErrorCode::kOk;
    case ENOENT: return ErrorCode::kNotFound;
    case EACCES: case EPERM: return ErrorCode::kPermission;
    case EINVAL: return ErrorCode::kInvalidArgument;
    case ECONNREFUSED: case EHOSTUNREACH: case ENETUNREACH:
      return ErrorCode::kUnavailable;
    case ETIMEDOUT: return ErrorCode::kTimeout;
    case EEXIST: return ErrorCode::kExists;
    case ENOSPC: case EDQUOT: return ErrorCode::kCapacity;
    case EPROTO: return ErrorCode::kProtocol;
    case EBADF: return ErrorCode::kBadFd;
    case ECANCELED: return ErrorCode::kCancelled;
    case ENOSYS: return ErrorCode::kUnimplemented;
    default: return ErrorCode::kIoError;
  }
}

}  // namespace hvac
