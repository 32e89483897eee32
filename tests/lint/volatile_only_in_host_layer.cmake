# Fails when a src/ file other than the host-FPU layer declares a
# `volatile`. fpmon/hardware.hpp holds the one set of opaque host ops
# (noinline + volatile) that every caller shares; optprobe/probes.hpp keeps
# its per-TU compile probes, which must be compiled in the caller's TU.
# Any other `volatile` is a new copy of the opaque ops growing back.
#
#   cmake -DSRC_DIR=<repo>/src -P volatile_only_in_host_layer.cmake

cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED SRC_DIR OR NOT IS_DIRECTORY "${SRC_DIR}")
  message(FATAL_ERROR "set -DSRC_DIR=<repo>/src (got '${SRC_DIR}')")
endif()

set(allowed fpmon/hardware.hpp optprobe/probes.hpp)

file(GLOB_RECURSE sources RELATIVE "${SRC_DIR}"
     "${SRC_DIR}/*.hpp" "${SRC_DIR}/*.h" "${SRC_DIR}/*.cpp" "${SRC_DIR}/*.cc")
list(SORT sources)

set(offenders "")
foreach(rel IN LISTS sources)
  if(rel IN_LIST allowed)
    continue()
  endif()
  file(STRINGS "${SRC_DIR}/${rel}" lines REGEX "volatile")
  foreach(line IN LISTS lines)
    # A comment may name the keyword; only code declares one.
    string(REGEX REPLACE "//.*" "" code "${line}")
    if(code MATCHES "(^|[^A-Za-z0-9_])volatile([^A-Za-z0-9_]|$)")
      string(STRIP "${line}" line)
      string(APPEND offenders "\n  src/${rel}: ${line}")
    endif()
  endforeach()
endforeach()

list(LENGTH sources scanned)
if(offenders)
  message(FATAL_ERROR
    "volatile outside the host-FPU layer (use fpq::mon::host from "
    "fpmon/hardware.hpp):${offenders}")
endif()
list(JOIN allowed ", " allowed_text)
message(STATUS "no volatile outside ${allowed_text} (${scanned} src files)")
