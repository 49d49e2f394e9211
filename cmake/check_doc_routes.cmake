# HTTP route drift check — runs inside the `docs_link_check` ctest job
# (included by check_doc_links.cmake).
#
# The HTTP paths documented in docs/SERVICE.md and docs/OBSERVABILITY.md
# (backticked, optionally prefixed with GET/POST) must be exactly the paths
# registered by handle(...) / handle_prefix(...) calls in src/obs/plane.cpp
# and src/service/service.cpp. A documented path nobody serves, or a served
# path nobody documents, fails the job. Paths compare without their
# parameter tail: `POST /v1/ingest/<tenant>` documents the prefix route
# "/v1/ingest/", and `/v1/report` names the same route.
#
# Expects REPO_DIR to be set.

# Normalize one path: drop a `<param>` or `?query` tail and trailing slashes
# (the root path "/" stays "/").
function(route_key path out_var)
  string(REGEX REPLACE "[<?].*$" "" p "${path}")
  string(REGEX REPLACE "/+$" "" p "${p}")
  if(p STREQUAL "")
    set(p "/")
  endif()
  set(${out_var} "${p}" PARENT_SCOPE)
endfunction()

set(registered "")
foreach(src src/obs/plane.cpp src/service/service.cpp)
  file(READ "${REPO_DIR}/${src}" text)
  string(REGEX MATCHALL "handle(_prefix)?\\(\"/[^\"]*\"" calls "${text}")
  foreach(call IN LISTS calls)
    string(REGEX REPLACE "^[^\"]*\"([^\"]*)\"$" "\\1" path "${call}")
    route_key("${path}" key)
    list(APPEND registered "${key}")
  endforeach()
endforeach()
list(REMOVE_DUPLICATES registered)

set(documented "")
foreach(doc docs/SERVICE.md docs/OBSERVABILITY.md)
  file(STRINGS "${REPO_DIR}/${doc}" lines)
  foreach(line IN LISTS lines)
    # A code span opens after a space, `(` or `|` (or at the line start, so
    # the line gets a leading space); this keeps the `/` between two spans,
    # as in `accepted`/`malformed`, from reading as a path.
    string(REGEX MATCHALL "[ (|]`(GET |POST )?/[^` ]*`" spans " ${line}")
    foreach(span IN LISTS spans)
      string(REGEX REPLACE "^.`(GET |POST )?(/[^`]*)`$" "\\2" path
             "${span}")
      route_key("${path}" key)
      list(APPEND documented "${key}")
    endforeach()
  endforeach()
endforeach()
list(REMOVE_DUPLICATES documented)

set(route_errors 0)
foreach(key IN LISTS documented)
  list(FIND registered "${key}" found)
  if(found EQUAL -1)
    message(SEND_ERROR "route '${key}' is documented in docs/SERVICE.md or "
                       "docs/OBSERVABILITY.md but no handler registers it")
    math(EXPR route_errors "${route_errors} + 1")
  endif()
endforeach()
foreach(key IN LISTS registered)
  list(FIND documented "${key}" found)
  if(found EQUAL -1)
    message(SEND_ERROR "route '${key}' is registered but documented in "
                       "neither docs/SERVICE.md nor docs/OBSERVABILITY.md")
    math(EXPR route_errors "${route_errors} + 1")
  endif()
endforeach()

list(LENGTH registered n_routes)
if(route_errors GREATER 0)
  message(FATAL_ERROR "docs route check: ${route_errors} drifted route(s)")
endif()
message(STATUS "docs route check OK (${n_routes} routes)")
