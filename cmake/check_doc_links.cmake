# Docs link checker — ctest job `docs_link_check`.
#
# Scans the repo's markdown (README.md, DESIGN.md, EXPERIMENTS.md, ROADMAP.md,
# PAPER.md, docs/*.md) for inline links `[text](target)` and verifies:
#   * relative file targets exist (so `docs/CONCURRENCY.md` can't go stale
#     when files move);
#   * intra-repo `#anchor` fragments match a real heading in the target file,
#     using GitHub's slug rules (lowercase, punctuation stripped, spaces to
#     dashes).
# External http(s) links are skipped — no network in the test environment.
# The same job then runs check_doc_routes.cmake: the HTTP routes the docs
# name must be the routes the code registers.
#
# Invoked by ctest as:
#   cmake -DREPO_DIR=<source dir> -P check_doc_links.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED REPO_DIR)
  message(FATAL_ERROR "missing -DREPO_DIR=")
endif()

file(GLOB doc_files
     "${REPO_DIR}/README.md" "${REPO_DIR}/DESIGN.md"
     "${REPO_DIR}/EXPERIMENTS.md" "${REPO_DIR}/ROADMAP.md"
     "${REPO_DIR}/PAPER.md" "${REPO_DIR}/docs/*.md")

# GitHub-style anchor slug: lowercase, drop everything but alphanumerics,
# spaces, hyphens and underscores, then spaces -> hyphens.
function(gh_slug heading out_var)
  string(TOLOWER "${heading}" s)
  string(REGEX REPLACE "[^a-z0-9 _-]" "" s "${s}")
  string(REPLACE " " "-" s "${s}")
  set(${out_var} "${s}" PARENT_SCOPE)
endfunction()

# All anchors one markdown file defines (code fences don't make headings).
function(collect_anchors file out_var)
  file(STRINGS "${file}" lines)
  set(anchors "")
  set(in_code FALSE)
  foreach(line IN LISTS lines)
    if(line MATCHES "^```")
      if(in_code)
        set(in_code FALSE)
      else()
        set(in_code TRUE)
      endif()
      continue()
    endif()
    if(NOT in_code AND line MATCHES "^#+ +(.*)$")
      gh_slug("${CMAKE_MATCH_1}" slug)
      list(APPEND anchors "${slug}")
    endif()
  endforeach()
  set(${out_var} "${anchors}" PARENT_SCOPE)
endfunction()

set(errors 0)
foreach(doc IN LISTS doc_files)
  get_filename_component(doc_dir "${doc}" DIRECTORY)
  file(RELATIVE_PATH doc_rel "${REPO_DIR}" "${doc}")
  file(STRINGS "${doc}" doc_lines)

  foreach(line IN LISTS doc_lines)
    # Hand-scan `](target)` occurrences: CMake's regex engine cannot
    # reliably exclude `)` inside a character class, so no REGEX MATCHALL.
    set(rest "${line}")
    while(TRUE)
      string(FIND "${rest}" "](" open)
      if(open EQUAL -1)
        break()
      endif()
      math(EXPR open "${open} + 2")
      string(SUBSTRING "${rest}" ${open} -1 rest)
      string(FIND "${rest}" ")" close)
      if(close EQUAL -1)
        break()
      endif()
      string(SUBSTRING "${rest}" 0 ${close} target)
      math(EXPR close "${close} + 1")
      string(SUBSTRING "${rest}" ${close} -1 rest)

      if(target STREQUAL "" OR target MATCHES "^https?://" OR
         target MATCHES "^mailto:")
        continue()
      endif()

      # Split off an optional #fragment.
      set(frag "")
      set(path_part "${target}")
      if(target MATCHES "^([^#]*)#(.*)$")
        set(path_part "${CMAKE_MATCH_1}")
        set(frag "${CMAKE_MATCH_2}")
      endif()

      # Resolve the file part relative to the doc that links it.
      if(path_part STREQUAL "")
        set(resolved "${doc}")  # same-file anchor
      else()
        get_filename_component(resolved "${doc_dir}/${path_part}" ABSOLUTE)
      endif()
      if(NOT EXISTS "${resolved}")
        message(SEND_ERROR "${doc_rel}: broken link target '${target}'")
        math(EXPR errors "${errors} + 1")
        continue()
      endif()

      # Anchors are only checkable inside markdown files.
      if(NOT frag STREQUAL "" AND resolved MATCHES "\\.md$")
        collect_anchors("${resolved}" anchors)
        list(FIND anchors "${frag}" found)
        if(found EQUAL -1)
          message(SEND_ERROR
                  "${doc_rel}: anchor '#${frag}' not found in "
                  "'${path_part}' (known: ${anchors})")
          math(EXPR errors "${errors} + 1")
        endif()
      endif()
    endwhile()
  endforeach()
endforeach()

list(LENGTH doc_files n_docs)
if(errors GREATER 0)
  message(FATAL_ERROR "docs link check: ${errors} broken link(s)")
endif()
message(STATUS "docs link check OK (${n_docs} files scanned)")

include("${CMAKE_CURRENT_LIST_DIR}/check_doc_routes.cmake")
